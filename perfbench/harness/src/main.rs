//! `perfbench-harness`: the compiled half of the vgod-rs benchmark.
//!
//! ```text
//! perfbench-harness loadgen --plan PLAN.json --out RESULT.json
//! perfbench-harness layers  --workload detect|serve|stream|detect-ooc --work DIR
//!                           --seed N [--epochs N --budget BYTES --threshold N]
//!                           [--compact-bytes BYTES --trace 0|1 --spans FILE]
//! perfbench-harness env     # resolved tensor thread count and SIMD path
//! ```
//!
//! `perfbench/run.py` builds this binary next to `vgod`, generates every
//! input, and calls it for the load generator and the per-layer probes.

mod layers;
mod loadgen;
mod trace;

use std::collections::HashMap;

fn flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut out = HashMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let key = key
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {key:?}"))?;
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        out.insert(key.to_string(), value.clone());
    }
    Ok(out)
}

fn run(argv: &[String]) -> Result<(), String> {
    let (command, rest) = argv
        .split_first()
        .ok_or("usage: perfbench-harness loadgen|layers ...")?;
    let f = flags(rest)?;
    let get = |k: &str| {
        f.get(k)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{k}"))
    };
    let num = |k: &str, default: usize| -> Result<usize, String> {
        f.get(k).map_or(Ok(default), |v| {
            v.parse().map_err(|e| format!("--{k}: {e}"))
        })
    };
    match command.as_str() {
        "loadgen" => loadgen::main(get("plan")?, get("out")?),
        "layers" => {
            let inputs = layers::Inputs {
                workload: get("workload")?.to_string(),
                work: get("work")?.to_string(),
                seed: num("seed", 0)? as u64,
                epochs: num("epochs", 10)?,
                budget: num("budget", 256 << 20)?,
                threshold: num("threshold", 20_000)?,
                compact_bytes: num("compact-bytes", 4 << 20)?,
            };
            layers::main(
                &inputs,
                num("trace", 0)? == 1,
                f.get("spans").map(String::as_str),
            )
        }
        "env" => {
            println!(
                "{{\"tensor_threads\":{},\"simd\":\"{}\"}}",
                vgod_tensor::threading::num_threads(),
                vgod_tensor::simd::active_isa().name()
            );
            Ok(())
        }
        other => Err(format!("unknown command {other:?}")),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = run(&argv) {
        eprintln!("perfbench-harness: {e}");
        std::process::exit(1);
    }
}
