//! `udma-cli` — drive the reproduction from the command line.
//!
//! ```text
//! cargo run --release -p udma-bench --bin udma_cli -- table1
//! cargo run --release -p udma-bench --bin udma_cli -- measure --method key --iters 2000
//! cargo run --release -p udma-bench --bin udma_cli -- explore --method rep3 --adversary fig5
//! cargo run --release -p udma-bench --bin udma_cli -- crossover --link gigabit
//! cargo run --release -p udma-bench --bin udma_cli -- contention --processes 6
//! cargo run --release -p udma-bench --bin udma_cli -- keyguess --bits 8 --guesses 255
//! cargo run --release -p udma-bench --bin udma_cli -- messaging --method ext --words 16
//! ```
//!
//! Argument parsing is deliberately hand-rolled (`--flag value` pairs
//! only) to keep the workspace dependency-free.

use std::collections::HashMap;
use std::process::ExitCode;
use udma::{
    crossover_rows, explore, measure_initiation, measure_initiation_with, os_bound_message_size,
    table1, DmaMethod, MachineConfig, Table,
};
use udma_bus::BusTiming;
use udma_nic::LinkModel;
use udma_workloads::{
    any_violation, atomic_comparison, guess_acceptance, run_contention, AdversaryKind,
    AttackScenario,
};

fn usage() -> &'static str {
    "udma-cli — User-Level DMA reproduction driver

USAGE: udma_cli <command> [--flag value]...

COMMANDS
  table1      [--iters N]                    regenerate the paper's Table 1
  measure     --method M [--iters N] [--bus-mhz F]
                                             one method's initiation cost
  explore     --method M [--adversary A]     exhaustive interleaving search
  crossover   [--link L]                     OS overhead vs wire time
  atomics     [--iters N]                    §3.5 atomic-operation costs
  contention  --processes P [--inits N] [--quantum Q] [--method M]
  keyguess    --bits B [--guesses G] [--seed S]
  messaging   [--method M] [--words W] [--count N]
  trace       [--method M]                   decoded device trace of one DMA
  pingpong    [--rounds N]                   msg-layer round-trip latency
  broadcast   [--nodes K] [--bytes B]        SHRIMP-1 fan-out to K cluster nodes,
                                             delivered through each receiver's IOMMU
  help                                       this text

METHODS  kernel | shrimp1 | shrimp2 | shrimp2-unpatched | flash |
         flash-unpatched | pal | key | ext | ext-pairwise | rep3 | rep4 | rep5
ADVERSARIES  own | probe | fig5 | sandwich
LINKS    eth10 | atm155 | atm622 | gigabit"
}

fn parse_method(s: &str) -> Option<DmaMethod> {
    Some(match s {
        "kernel" => DmaMethod::Kernel,
        "shrimp1" => DmaMethod::Shrimp1,
        "shrimp2" => DmaMethod::Shrimp2 { patched_kernel: true },
        "shrimp2-unpatched" => DmaMethod::Shrimp2 { patched_kernel: false },
        "flash" => DmaMethod::Flash { patched_kernel: true },
        "flash-unpatched" => DmaMethod::Flash { patched_kernel: false },
        "pal" => DmaMethod::Pal,
        "key" => DmaMethod::KeyBased,
        "ext" => DmaMethod::ExtShadow,
        "ext-pairwise" => DmaMethod::ExtShadowPairwise,
        "rep3" => DmaMethod::Repeated3,
        "rep4" => DmaMethod::Repeated4,
        "rep5" => DmaMethod::Repeated5,
        _ => return None,
    })
}

fn parse_adversary(s: &str) -> Option<AdversaryKind> {
    Some(match s {
        "own" => AdversaryKind::OwnInitiation,
        "probe" => AdversaryKind::ProbeSharedSource,
        "fig5" => AdversaryKind::Figure5,
        "sandwich" => AdversaryKind::SandwichSteal,
        _ => return None,
    })
}

fn parse_link(s: &str) -> Option<LinkModel> {
    Some(match s {
        "eth10" => LinkModel::ethernet10(),
        "atm155" => LinkModel::atm155(),
        "atm622" => LinkModel::atm622(),
        "gigabit" => LinkModel::gigabit(),
        _ => return None,
    })
}

/// `--flag value` pairs into a map; returns `None` on a dangling flag.
fn parse_flags(args: &[String]) -> Option<HashMap<String, String>> {
    let mut out = HashMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = flag.strip_prefix("--")?;
        let value = it.next()?;
        out.insert(key.to_string(), value.clone());
    }
    Some(out)
}

fn get_u64(flags: &HashMap<String, String>, key: &str, default: u64) -> Result<u64, String> {
    match flags.get(key) {
        Some(v) => v.parse().map_err(|_| format!("--{key} expects a number, got `{v}`")),
        None => Ok(default),
    }
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        return Err("missing command".into());
    };
    let flags = parse_flags(rest).ok_or("flags must come in `--flag value` pairs")?;
    let method = |default: DmaMethod| -> Result<DmaMethod, String> {
        match flags.get("method") {
            Some(s) => parse_method(s).ok_or(format!("unknown method `{s}`")),
            None => Ok(default),
        }
    };

    match cmd.as_str() {
        "help" | "--help" | "-h" => println!("{}", usage()),
        "table1" => {
            let iters = get_u64(&flags, "iters", 1000)? as u32;
            let mut t = Table::new(
                "Table 1 (simulated)",
                &["DMA algorithm", "paper (µs)", "measured (µs)"],
            );
            for c in table1(iters) {
                t.row_owned(vec![
                    c.method.name().to_string(),
                    c.paper_us.map_or("—".into(), |p| format!("{p:.1}")),
                    format!("{:.2}", c.mean.as_us()),
                ]);
            }
            println!("{t}");
        }
        "measure" => {
            let m = method(DmaMethod::KeyBased)?;
            let iters = get_u64(&flags, "iters", 1000)? as u32;
            let cost = match flags.get("bus-mhz") {
                Some(f) => {
                    let mhz: u64 = f.parse().map_err(|_| "--bus-mhz expects a number")?;
                    measure_initiation_with(
                        MachineConfig {
                            bus_timing: BusTiming::scaled(mhz * 1_000_000),
                            ..MachineConfig::new(m)
                        },
                        iters,
                    )
                }
                None => measure_initiation(m, iters),
            };
            println!(
                "{}: {:.3} µs per initiation ({} iterations{})",
                m.name(),
                cost.mean.as_us(),
                iters,
                cost.paper_us.map_or(String::new(), |p| format!(", paper: {p} µs")),
            );
        }
        "explore" => {
            let m = method(DmaMethod::Repeated5)?;
            let adv = match flags.get("adversary") {
                Some(s) => parse_adversary(s).ok_or(format!("unknown adversary `{s}`"))?,
                None => AdversaryKind::OwnInitiation,
            };
            let s = AttackScenario::new(m, adv);
            let report = explore(&s.build(), 10_000, any_violation);
            println!(
                "{} vs {adv:?}: {} schedules explored exhaustively, {} violations",
                m.name(),
                report.schedules,
                report.findings.len()
            );
            for f in report.findings.iter().take(3) {
                println!(
                    "  schedule {:?} → transfer {} -> {}",
                    f.schedule.iter().map(|p| p.as_u32()).collect::<Vec<_>>(),
                    f.detail.src,
                    f.detail.dst
                );
            }
        }
        "crossover" => {
            let link = match flags.get("link") {
                Some(s) => parse_link(s).ok_or(format!("unknown link `{s}`"))?,
                None => LinkModel::atm155(),
            };
            let kernel = measure_initiation(DmaMethod::Kernel, 500).mean;
            let user = measure_initiation(DmaMethod::ExtShadow, 500).mean;
            let mut t = Table::new(
                &format!("{} crossover", link.name()),
                &["message (B)", "kernel total", "user total", "speedup"],
            );
            for row in crossover_rows(kernel, user, link, &[64, 512, 4096, 32768, 262144]) {
                t.row_owned(vec![
                    row.msg_bytes.to_string(),
                    row.kernel_total.to_string(),
                    row.user_total.to_string(),
                    format!("{:.2}×", row.speedup),
                ]);
            }
            println!("{t}");
            println!("OS-bound up to {} bytes", os_bound_message_size(kernel, link));
        }
        "atomics" => {
            let iters = get_u64(&flags, "iters", 500)? as u32;
            for (m, t) in atomic_comparison(iters) {
                println!("{:<36} {:.2} µs per atomic_add", m.name(), t.as_us());
            }
        }
        "contention" => {
            let m = method(DmaMethod::KeyBased)?;
            let processes = get_u64(&flags, "processes", 4)? as u32;
            let inits = get_u64(&flags, "inits", 50)? as u32;
            let quantum = get_u64(&flags, "quantum", 200)?;
            let r = run_contention(m, processes, inits, quantum);
            println!(
                "{}: {} procs × {} inits, quantum {} → finished={}, \
                 user-level={}, fallback={}, {:.2} µs/init, {} switches",
                m.name(),
                r.processes,
                r.inits_per_process,
                quantum,
                r.finished,
                r.user_level_processes,
                r.kernel_fallback_processes,
                r.mean_per_init().as_us(),
                r.context_switches
            );
        }
        "keyguess" => {
            let bits = get_u64(&flags, "bits", 16)? as u32;
            let guesses = get_u64(&flags, "guesses", 1000)?;
            let seed = get_u64(&flags, "seed", 7)?;
            let s = guess_acceptance(bits, guesses, seed);
            println!(
                "{}-bit keys, {} guesses: {} accepted (rate {:.3e})",
                s.key_bits,
                s.attempts,
                s.accepted,
                s.acceptance_rate()
            );
        }
        "pingpong" => {
            let rounds = get_u64(&flags, "rounds", 16)?;
            for cost in udma_msg::pingpong_comparison(rounds) {
                println!("{:<36} {:.2} µs round trip", cost.method.name(), cost.round_trip.as_us());
            }
        }
        "broadcast" => {
            let nodes = get_u64(&flags, "nodes", 4)? as u32;
            let bytes = get_u64(&flags, "bytes", 1024)?;
            let r = udma_workloads::broadcast(nodes, bytes);
            println!(
                "{} nodes × {} B: initiations done at {:.2} µs, last ACK at {:.2} µs, verified: {}",
                r.nodes,
                r.bytes_per_node,
                r.initiation_time.as_us(),
                r.completion_time.as_us(),
                r.verified
            );
        }
        "trace" => {
            let mth = method(DmaMethod::KeyBased)?;
            let mut m = udma::Machine::with_method(mth);
            let mut spec = udma::ProcessSpec::two_buffers();
            if mth == DmaMethod::Shrimp1 {
                spec.mapped_out.push((0, 1));
            }
            m.spawn(&spec, |env| {
                let req = udma::DmaRequest::new(env.buffer(0).va, env.buffer(1).va, 64);
                udma::emit_dma_once(env, udma_cpu::ProgramBuilder::new(), &req).halt().build()
            });
            m.bus_mut().reset_stats();
            m.bus_mut().trace_mut().enable();
            m.run(10_000);
            println!("{} — one 64-byte initiation, device traffic:", mth.name());
            print!("{}", udma::device_trace_report(&m));
        }
        "messaging" => {
            let m = method(DmaMethod::ExtShadow)?;
            let words = get_u64(&flags, "words", 16)?;
            let count = get_u64(&flags, "count", 24)?;
            let cfg = udma_msg::ChannelConfig { slots: 4, payload_words: words };
            let cost = udma_msg::measure_messaging(m, &cfg, count);
            println!(
                "{}: {} × {}-byte messages → {:.2} µs per message end to end",
                m.name(),
                cost.messages,
                cost.payload_bytes,
                cost.per_message.as_us()
            );
        }
        other => return Err(format!("unknown command `{other}`\n\n{}", usage())),
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("run `udma_cli help` for usage");
            ExitCode::FAILURE
        }
    }
}
