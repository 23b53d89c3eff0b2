//! `vgod` — command-line interface for the vgod-rs workspace.
//!
//! ```text
//! vgod generate --dataset cora --scale small --seed 42 --out graph.txt
//! vgod inject   --in graph.txt --mode standard --p 5 --q 15 --k 50 \
//!               --out injected.txt --truth truth.txt --seed 1
//! vgod detect   --in injected.txt --model vgod --scores scores.tsv
//! vgod eval     --scores scores.tsv --truth truth.txt --at 50
//! vgod stats    --in graph.txt
//! ```

mod args;
mod commands;
mod files;

use args::Args;

const USAGE: &str = "\
vgod — unsupervised graph outlier detection (VGOD, ICDE 2023 reproduction)

USAGE:
  vgod <command> [--flag value]...

COMMANDS:
  generate   create a synthetic dataset replica
             --dataset cora|citeseer|pubmed|flickr|weibo  --scale tiny|small|medium|paper
             --seed N  --out FILE  [--truth FILE: weibo only]
  inject     plant outliers into a graph
             --in FILE  --out FILE  --truth FILE  --seed N
             --mode standard|structural|contextual|replacement
             [--p N --q N --k N --metric euclidean|cosine --fraction F]
  detect     train a detector and write per-node outlier scores
             --in FILE  --scores FILE  --model vgod|vbm|arm|dominant|anomalydae|done|cola|conad|radar|degnorm|deg|l2norm|random
             [--epochs N --hidden N --lr F --seed N --self-loops true|false]
             [--batch N: mini-batch training for vbm/arm]
             [--save-model FILE | --load-model FILE: checkpoint for any model]
             [--out-of-core: --in is a .vgodstore file, demand-paged under --mem-budget]
             [--mem-budget SIZE (default 256M) --threshold N --fanout N --hops N]
             [--train-seeds N --sample-seed N --verbose: print store stats]
             [--ooc-threads N: parallel score batches, 0 = worker pool size]
             [--cache-policy segmented|lru: block replacement, default segmented]
             [--shards N: partition the graph and score across N forked
              worker processes; merged output is byte-identical]
  store      build, convert, or inspect on-disk graph stores (.vgodstore)
             --synth-nodes N --out FILE [--seed N --truth FILE]   synthesize at scale
             --in graph.txt --out FILE                            convert a text graph
             --info FILE [--mem-budget SIZE]                      print header + stats
             --info DIR                                           print partition metadata
  serve      serve checkpointed models over HTTP (replicated micro-batched scoring)
             --models DIR  --in FILE  [--host H --port N: default 127.0.0.1:7878]
             [--max-batch N --max-wait-us N --queue N: per-replica queue]
             [--replicas N: scoring replicas, 0 = one per core (default)]
             [--reload-ms N: checkpoint hot-reload poll interval, default 500]
             [--addr-file FILE: write the bound address, useful with --port 0]
             [--out-of-core: replicas share one demand-paged store under
              --mem-budget, --cache-policy and the detect sampling flags]
             [--shards N: partition --in, fork one shard-worker process per
              shard, and run the scatter-gather coordinator on this port]
             [--partition-dir DIR: keep the partition here (default: temp)]
             [--streaming: mutable graph + POST /graph/update; applied
              batches delta-rescore the dirty k-hop frontier per model]
             [--compact-bytes SIZE: overlay fold threshold, default 4M]
             [--update-queue N: pending mutation batches, default 256]
  stream-gen generate a mutation log (JSONL batches) plus the final graph
             --in FILE  --out LOG  --final FILE  [--batches N --ops N --seed N]
  stream-replay  POST a mutation log to a streaming server, batch by batch
             --log LOG  --addr HOST:PORT  [--model NAME: fetch the model's
              served scores after replay --scores-out FILE: write them as a
              score file, byte-comparable to detect --scores output]
  eval       score a ranking against ground truth
             --scores FILE  --truth FILE  [--at K]
  stats      print graph statistics
             --in FILE
";

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprint!("{USAGE}");
        std::process::exit(2);
    };
    let args = match Args::parse_with_switches(rest, &["out-of-core", "verbose", "streaming"]) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n");
            eprint!("{USAGE}");
            std::process::exit(2);
        }
    };
    // Every input is a named flag; stray words are most likely typos.
    if let Some(stray) = args.positional().first() {
        eprintln!("error: unexpected argument {stray:?} (all inputs are --flag value pairs)\n");
        eprint!("{USAGE}");
        std::process::exit(2);
    }
    let result = match command.as_str() {
        "generate" => commands::generate(&args),
        "inject" => commands::inject(&args),
        "detect" => commands::detect(&args),
        "store" => commands::store(&args),
        "serve" => commands::serve(&args),
        // Internal: one shard's scoring process, forked by --shards.
        "shard-worker" => commands::shard_worker(&args),
        "stream-gen" => commands::stream_gen(&args),
        "stream-replay" => commands::stream_replay(&args),
        "eval" => commands::eval(&args),
        "stats" => commands::stats(&args),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}")),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
