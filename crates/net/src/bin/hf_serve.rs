//! `hf-serve` — load a model artifact, serve it over TCP.
//!
//! ```text
//! hf-serve --artifact model.hfa [--addr 127.0.0.1:7878]
//!          [--batch-max 64] [--queue-cap 1024] [--threads 1] [--k 10]
//!          [--lazy] [--user-shards 64] [--user-shard-cap 256]
//!          [--tile-panels N]
//! ```
//!
//! The model comes from the compact binary artifact format
//! (`ModelArtifact::load_file`) — the deployment path: no checkpoint
//! replay, no dataset in sight. With `--lazy` the artifact is opened
//! through `load_file_lazy` instead: user records decode on first touch
//! into a sharded LRU (`--user-shards` × `--user-shard-cap` records
//! resident at most) and at most `--tile-panels` item-half tiles are
//! kept (64 under `--lazy` unless given; `0`, and the default without
//! `--lazy`, keep every tile, computed at boot). Either way the process
//! reports its resident footprint once the recommender is built and the
//! item-half policy it resolved (`item halves: all <N> tiles` / `up to
//! <n> of <N> tiles`), prints one `listening on <addr>` line once the
//! socket is bound, and serves until a client sends a `Shutdown` frame,
//! then drains in-flight requests and exits 0.
//!
//! A client's `Reload` frame re-reads `--artifact` from disk and
//! hot-swaps it in: in-flight micro-batches finish on the old artifact,
//! later batches serve the fresh one, and no restart is needed — the
//! online pipeline overwrites the artifact path and sends `Reload`.

use hf_net::{serve_slot, ReloadFn, ServerConfig};
use hf_serve::{
    footprint, ArtifactSlot, ItemHalfMode, LazyConfig, ModelArtifact, Recommender,
    RecommenderBuilder,
};
use hf_tensor::cli::{fatal, Cli};

#[derive(Clone)]
struct Args {
    artifact: String,
    addr: String,
    batch_max: usize,
    queue_cap: usize,
    threads: usize,
    k: usize,
    lazy: bool,
    user_shards: usize,
    user_shard_cap: usize,
    tile_panels: Option<usize>,
}

const USAGE: &str = "usage: hf-serve --artifact <model.hfa>\n\
    \x20   [--addr 127.0.0.1:7878] [--batch-max 64] [--queue-cap 1024]\n\
    \x20   [--threads 1] [--k 10]\n\
    \x20   [--lazy] [--user-shards 64] [--user-shard-cap 256] [--tile-panels N]\n\
    \x20   (item-half tiles kept: N; 0 = all, the default; 64 under --lazy)";

fn parse_args() -> Args {
    let mut cli = Cli::new(USAGE, &["--lazy"]);
    let args = Args {
        artifact: cli
            .value("--artifact")
            .unwrap_or_else(|| cli.fail("--artifact is required")),
        addr: cli
            .value("--addr")
            .unwrap_or_else(|| "127.0.0.1:7878".into()),
        batch_max: cli.value("--batch-max").unwrap_or(64),
        queue_cap: cli.value("--queue-cap").unwrap_or(1024),
        threads: cli.value("--threads").unwrap_or(1),
        k: cli.value("--k").unwrap_or(10),
        lazy: cli.flag("--lazy"),
        user_shards: cli
            .value("--user-shards")
            .unwrap_or(LazyConfig::default().user_shards),
        user_shard_cap: cli
            .value("--user-shard-cap")
            .unwrap_or(LazyConfig::default().shard_capacity),
        tile_panels: cli.value("--tile-panels"),
    };
    cli.finish();
    args
}

/// Item-half policy: under --lazy default to a budget of 64 tiles (bounded
/// memory); eager keeps every tile. `--tile-panels 0` keeps every tile
/// either way.
fn item_half_mode(args: &Args) -> ItemHalfMode {
    match args.tile_panels {
        Some(0) => ItemHalfMode::Precomputed,
        Some(n) => ItemHalfMode::Tiled { max_panels: n },
        None if args.lazy => ItemHalfMode::Tiled { max_panels: 64 },
        None => ItemHalfMode::Precomputed,
    }
}

/// Loads the artifact file and builds a recommender per the CLI flags —
/// the shared path for the initial build and every on-wire `Reload`.
fn build_recommender(args: &Args) -> Result<Recommender, String> {
    let artifact = if args.lazy {
        ModelArtifact::load_file_lazy(
            &args.artifact,
            LazyConfig {
                user_shards: args.user_shards,
                shard_capacity: args.user_shard_cap,
            },
        )
    } else {
        ModelArtifact::load_file(&args.artifact)
    }
    .map_err(|e| format!("cannot load model: {e}"))?;
    println!(
        "hf-serve: artifact v{} — {} users, {} items, model {:?}{}",
        artifact.version(),
        artifact.num_users(),
        artifact.num_items(),
        artifact.model(),
        if artifact.is_lazy() {
            format!(
                " (lazy: {} shards x {} records)",
                args.user_shards, args.user_shard_cap
            )
        } else {
            String::new()
        }
    );

    RecommenderBuilder::new(artifact)
        .default_k(args.k)
        .threads(args.threads)
        .item_half_mode(item_half_mode(args))
        .build()
        .map_err(|e| format!("invalid serving configuration: {e}"))
}

fn main() {
    let args = parse_args();

    let recommender = build_recommender(&args).unwrap_or_else(|e| fatal(e));
    match footprint::resident_bytes() {
        Some(rss) => println!(
            "hf-serve: resident footprint after build: {}",
            footprint::fmt_bytes(rss)
        ),
        None => println!("hf-serve: resident footprint unavailable on this platform"),
    }
    let tiles = recommender.item_half_tiles();
    match item_half_mode(&args) {
        ItemHalfMode::Precomputed => println!("hf-serve: item halves: all {tiles} tiles"),
        ItemHalfMode::Tiled { max_panels } => {
            println!("hf-serve: item halves: up to {max_panels} of {tiles} tiles")
        }
    }

    let config = ServerConfig {
        batch_max: args.batch_max,
        queue_capacity: args.queue_cap,
    };
    let slot = ArtifactSlot::new(recommender);
    let reload_args = args.clone();
    let reload: ReloadFn = Box::new(move || build_recommender(&reload_args));
    let handle = serve_slot(slot, Some(reload), &args.addr, config)
        .unwrap_or_else(|e| fatal(format!("cannot serve on {}: {e}", args.addr)));
    println!(
        "hf-serve: listening on {} (batch <= {}, queue <= {})",
        handle.local_addr(),
        args.batch_max,
        args.queue_cap
    );
    // Serve until a client sends a Shutdown frame, then drain and exit.
    handle.wait();
    println!("hf-serve: drained and stopped");
}
