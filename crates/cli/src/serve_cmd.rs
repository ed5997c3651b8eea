//! `giallar serve` — run the resident verification daemon.

use std::path::PathBuf;
use std::sync::Arc;

use giallar_core::cache::{EvictionPolicy, VerdictCache};
use giallar_serve::engine::{Engine, EngineConfig};
use giallar_serve::net::Endpoint;
use giallar_serve::protocol::DEFAULT_ADDR;
use giallar_serve::server::Server;

use crate::{parse_count, value_of, CmdError, CmdResult};

struct Options {
    listen: String,
    max_entries: Option<usize>,
    ttl: Option<u64>,
    cache_path: Option<PathBuf>,
}

fn parse_options(args: &[String]) -> Result<Options, CmdError> {
    let mut options = Options {
        listen: DEFAULT_ADDR.to_string(),
        max_entries: None,
        ttl: None,
        cache_path: None,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--listen" => options.listen = value_of(args, &mut i, "--listen")?,
            "--max-entries" => {
                options.max_entries =
                    Some(parse_count(&value_of(args, &mut i, "--max-entries")?, "--max-entries")?)
            }
            "--ttl" => {
                options.ttl = Some(parse_count(&value_of(args, &mut i, "--ttl")?, "--ttl")? as u64)
            }
            "--cache" => {
                options.cache_path = Some(PathBuf::from(value_of(args, &mut i, "--cache")?))
            }
            other => return Err(CmdError::Usage(format!("serve: unknown option `{other}`"))),
        }
        i += 1;
    }
    Ok(options)
}

/// Runs `giallar serve`: builds the resident engine (warm-started from
/// `--cache` when the file exists), binds the socket, and serves until a
/// client sends `shutdown`.  On shutdown the resident cache is written back
/// to `--cache`, so the next daemon (or a plain `giallar verify --cache`)
/// starts warm.
pub fn run(args: &[String]) -> CmdResult {
    let options = parse_options(args)?;
    let policy = EvictionPolicy { max_entries: options.max_entries, ttl: options.ttl };
    let config = EngineConfig { policy };

    let engine = match &options.cache_path {
        Some(path) if path.exists() => {
            let (cache, warning) = VerdictCache::load_lenient(path);
            if let Some(warning) = warning {
                eprintln!("warning: {warning}");
            }
            eprintln!("serve: warm-started from {} ({} entries)", path.display(), cache.len());
            Engine::with_cache(config, &cache)
        }
        _ => Engine::new(config),
    };

    let endpoint = Endpoint::parse(&options.listen);
    let server = Server::bind(Arc::new(engine), &endpoint)
        .map_err(|error| CmdError::Failed(format!("serve: could not bind {endpoint}: {error}")))?;
    let engine = Arc::clone(server.engine());
    eprintln!(
        "serve: listening on {} (policy max_entries={:?} ttl={:?})",
        server.local_endpoint(),
        options.max_entries,
        options.ttl
    );
    server.run().map_err(|error| CmdError::Failed(format!("serve: {error}")))?;

    if let Some(path) = &options.cache_path {
        let cache = engine.cache();
        match cache.save(path) {
            Ok(()) => {
                eprintln!("serve: saved {} entries to {}", cache.len(), path.display())
            }
            Err(error) => {
                eprintln!("warning: could not save cache {}: {error}", path.display())
            }
        }
    }
    eprintln!("serve: stopped");
    Ok(())
}
