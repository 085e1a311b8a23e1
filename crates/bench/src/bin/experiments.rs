//! The experiment harness: regenerates every table and figure of
//! EXPERIMENTS.md.
//!
//! ```text
//! cargo run --release --bin experiments            # run everything
//! cargo run --release --bin experiments fig5 e8    # run a subset
//! cargo run --release --bin experiments --list     # list experiments
//! ```

use sqpeer_bench::{find, EXPERIMENTS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list" || a == "-l") {
        for e in EXPERIMENTS {
            println!("{:<6} {}", e.id, e.about);
        }
        return;
    }
    let ids: Vec<String> = if args.is_empty() || args.iter().any(|a| a == "all") {
        EXPERIMENTS.iter().map(|e| e.id.to_string()).collect()
    } else {
        args
    };
    let mut failed = false;
    for id in &ids {
        match find(id) {
            Some(experiment) => {
                println!("{}", "=".repeat(72));
                println!("{}", experiment.run());
            }
            None => {
                eprintln!("unknown experiment `{id}` (try --list)");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
