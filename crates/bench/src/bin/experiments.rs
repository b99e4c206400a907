//! Regenerates every table and figure of the paper's evaluation in one
//! run, as markdown. `EXPERIMENTS.md` is produced from this output:
//!
//! ```text
//! cargo run --release -p udma-bench --bin experiments
//! ```
//!
//! `--smoke` runs a reduced-iteration subset (a CI health check that the
//! simulator, the explorations and the measurement plumbing still work —
//! not a report to publish numbers from).

use udma::{
    crossover_rows, explore, measure_initiation, os_bound_message_size, table1, DmaMethod, Table,
};
use udma_nic::LinkModel;
use udma_workloads::{
    a3_context_grid, any_violation, atomic_comparison, bus_sweep, coherence_cost_sweep,
    context_count_ablation, context_pressure_sweep, context_switch, dcache_effect,
    e17_context_grid, e20_depth_grid, empty_syscall, false_sharing_adversary, guess_acceptance,
    hostile_tenant_scenario, illegal_transfer, misinformation, mode_label,
    pollution_with_known_key, quantum_ablation, ring_initiation_sweep, run_contention, tlb_miss,
    write_buffer_ablation, AdversaryKind, AttackScenario,
};

fn e1_table1(iters: u32) {
    let mut t = Table::new(
        "E1 — Table 1: comparison of DMA initiation algorithms",
        &["DMA algorithm", "paper (µs)", "measured (µs)", "measured/paper", "user instrs"],
    );
    for c in table1(iters) {
        t.row_owned(vec![
            c.method.name().to_string(),
            c.paper_us.map_or("—".into(), |p| format!("{p:.1}")),
            format!("{:.2}", c.mean.as_us()),
            c.vs_paper().map_or("—".into(), |r| format!("{r:.2}")),
            c.user_instructions.map_or("thousands".into(), |n| n.to_string()),
        ]);
    }
    println!("{t}");
}

fn e2_kernel_decomposition() {
    // Figure 1's cost structure: the syscall round trip dominates.
    let cost = udma_cpu::CostModel::alpha_3000_300();
    let total = measure_initiation(DmaMethod::Kernel, 1_000).mean;
    let syscall = cost.syscall_round_trip();
    let translate = udma_bus::SimTime::from_ps(2 * cost.translation().as_ps());
    let bus = udma_bus::SimTime::from_ps(
        total.as_ps().saturating_sub(syscall.as_ps() + translate.as_ps()),
    );
    let mut t = Table::new(
        "E2 — Figure 1 cost decomposition (kernel-level DMA)",
        &["component", "time", "share"],
    );
    for (name, v) in [
        ("syscall entry+exit", syscall),
        ("virtual_to_physical ×2 + check_size", translate),
        ("register writes + status read (+ issue)", bus),
        ("total", total),
    ] {
        t.row_owned(vec![
            name.to_string(),
            format!("{:.2} µs", v.as_us()),
            format!("{:.0}%", 100.0 * v.as_ps() as f64 / total.as_ps() as f64),
        ]);
    }
    println!("{t}");
}

fn e3_races() {
    let mut t = Table::new(
        "E3 — §2.5 race matrix (two honest processes, every interleaving)",
        &["method", "kernel patch", "schedules", "violations"],
    );
    for (method, patch) in [
        (DmaMethod::Shrimp2 { patched_kernel: false }, "no"),
        (DmaMethod::Shrimp2 { patched_kernel: true }, "abort"),
        (DmaMethod::Flash { patched_kernel: false }, "no"),
        (DmaMethod::Flash { patched_kernel: true }, "notify"),
        (DmaMethod::Pal, "no (PAL)"),
        (DmaMethod::KeyBased, "no"),
        (DmaMethod::ExtShadow, "no"),
        (DmaMethod::ExtShadowPairwise, "no"),
        (DmaMethod::Repeated5, "no"),
    ] {
        let s = AttackScenario::new(method, AdversaryKind::OwnInitiation);
        let r = explore(&s.build(), 10_000, any_violation);
        t.row_owned(vec![
            method.name().to_string(),
            patch.to_string(),
            r.schedules.to_string(),
            r.findings.len().to_string(),
        ]);
    }
    println!("{t}");
}

fn e4_e5_e6_attacks() {
    let mut t = Table::new(
        "E4/E5/E6 — Figures 5, 6 and the §3.3.1 verification",
        &["variant", "adversary", "predicate", "schedules", "violations"],
    );
    {
        let s = AttackScenario::new(DmaMethod::Repeated3, AdversaryKind::Figure5);
        let r = explore(&s.build(), 5_000, illegal_transfer);
        t.row_owned(vec![
            "3-instruction".into(),
            "Figure 5".into(),
            "illegal transfer".into(),
            r.schedules.to_string(),
            r.findings.len().to_string(),
        ]);
    }
    {
        let s = AttackScenario::new(DmaMethod::Repeated4, AdversaryKind::ProbeSharedSource);
        let r = explore(&s.build(), 5_000, misinformation);
        t.row_owned(vec![
            "4-instruction".into(),
            "shared-source probe".into(),
            "misinformation".into(),
            r.schedules.to_string(),
            r.findings.len().to_string(),
        ]);
    }
    for adv in [
        AdversaryKind::OwnInitiation,
        AdversaryKind::ProbeSharedSource,
        AdversaryKind::Figure5,
        AdversaryKind::SandwichSteal,
    ] {
        let s = AttackScenario::new(DmaMethod::Repeated5, adv);
        let r = explore(&s.build(), 10_000, any_violation);
        t.row_owned(vec![
            "5-instruction".into(),
            format!("{adv:?}"),
            "any violation".into(),
            r.schedules.to_string(),
            r.findings.len().to_string(),
        ]);
    }
    println!("{t}");
}

fn e7_bus_sweep() {
    let mut t = Table::new(
        "E7 — initiation cost vs I/O bus clock (§3.4: \"our implementation is pessimistic\")",
        &["bus MHz", "Ext. Shadow (µs)", "Key-based (µs)", "Rep. Passing (µs)", "Kernel (µs)"],
    );
    let freqs = [12u64, 25, 33, 50, 66];
    let ext = bus_sweep(DmaMethod::ExtShadow, &freqs, 500);
    let key = bus_sweep(DmaMethod::KeyBased, &freqs, 500);
    let rep = bus_sweep(DmaMethod::Repeated5, &freqs, 500);
    let ker = bus_sweep(DmaMethod::Kernel, &freqs, 300);
    for i in 0..freqs.len() {
        t.row_owned(vec![
            freqs[i].to_string(),
            format!("{:.2}", ext[i].mean.as_us()),
            format!("{:.2}", key[i].mean.as_us()),
            format!("{:.2}", rep[i].mean.as_us()),
            format!("{:.2}", ker[i].mean.as_us()),
        ]);
    }
    println!("{t}");
}

fn e8_crossover(iters: u32) {
    let kernel = measure_initiation(DmaMethod::Kernel, iters).mean;
    let user = measure_initiation(DmaMethod::ExtShadow, iters).mean;
    let mut t = Table::new(
        "E8 — OS-bound message size per network generation (intro trend)",
        &["link", "kernel init", "OS-bound up to (bytes)", "speedup @256B", "speedup @64KiB"],
    );
    for link in
        [LinkModel::ethernet10(), LinkModel::atm155(), LinkModel::atm622(), LinkModel::gigabit()]
    {
        let rows = crossover_rows(kernel, user, link, &[256, 65536]);
        t.row_owned(vec![
            link.name().to_string(),
            format!("{:.1} µs", kernel.as_us()),
            os_bound_message_size(kernel, link).to_string(),
            format!("{:.2}×", rows[0].speedup),
            format!("{:.2}×", rows[1].speedup),
        ]);
    }
    println!("{t}");
}

fn e9_atomics(iters: u32) {
    let mut t = Table::new(
        "E9 — §3.5 atomic operations (atomic_add, mean of 500)",
        &["path", "measured (µs)"],
    );
    for (method, time) in atomic_comparison(iters) {
        t.row_owned(vec![method.name().to_string(), format!("{:.2}", time.as_us())]);
    }
    println!("{t}");
}

fn e10_key_guessing() {
    let mut t = Table::new(
        "E10 — §3.1 key guessing (sequential sweep)",
        &["key bits", "guesses", "accepted", "acceptance rate"],
    );
    for (bits, guesses) in [(4u32, 15u64), (6, 63), (8, 255), (16, 5_000), (61, 5_000)] {
        let s = guess_acceptance(bits, guesses, 0xE10);
        t.row_owned(vec![
            bits.to_string(),
            s.attempts.to_string(),
            s.accepted.to_string(),
            format!("{:.2e}", s.acceptance_rate()),
        ]);
    }
    println!("{t}");
    println!("With the key known, redirection succeeds: {}\n", pollution_with_known_key());
}

fn contention_extra() {
    let mut t = Table::new(
        "Extra — contention and the §3.2 kernel fallback (50 inits/process)",
        &["method", "processes", "user-level", "fallback", "mean/init (µs)"],
    );
    for method in [DmaMethod::KeyBased, DmaMethod::Repeated5] {
        for procs in [2u32, 4, 6, 8] {
            let r = run_contention(method, procs, 50, 200);
            t.row_owned(vec![
                method.name().to_string(),
                procs.to_string(),
                r.user_level_processes.to_string(),
                r.kernel_fallback_processes.to_string(),
                format!("{:.2}", r.mean_per_init().as_us()),
            ]);
        }
    }
    println!("{t}");
}

fn ablation_quantum() {
    let mut t = Table::new(
        "Ablation A1 — scheduler quantum vs the shared repeated-passing FSM (2 procs × 10 inits)",
        &[
            "quantum (instrs)",
            "Rep. Passing finished?",
            "Rep. mean/init",
            "Key-based finished?",
            "Key mean/init",
        ],
    );
    for &q in &[2u64, 5, 12, 50, 300] {
        let rep = &quantum_ablation(DmaMethod::Repeated5, &[q], 2, 10)[0];
        let key = &quantum_ablation(DmaMethod::KeyBased, &[q], 2, 10)[0];
        let fmt = |r: &udma_workloads::QuantumRow| {
            if r.finished {
                format!("{:.2} µs", r.mean_per_init.as_us())
            } else {
                "—".into()
            }
        };
        t.row_owned(vec![
            q.to_string(),
            if rep.finished { "yes".into() } else { "LIVELOCK".into() },
            fmt(rep),
            if key.finished { "yes".into() } else { "LIVELOCK".into() },
            fmt(key),
        ]);
    }
    println!("{t}");
}

fn ablation_write_buffer() {
    let mut t = Table::new(
        "Ablation A2 — write-buffer policy (Rep. Passing, barriered per Figure 7)",
        &["policy", "mean/init (µs)"],
    );
    for row in write_buffer_ablation(DmaMethod::Repeated5, 500) {
        t.row_owned(vec![row.name.to_string(), format!("{:.2}", row.mean.as_us())]);
    }
    println!("{t}");
}

fn ablation_contexts() {
    let mut t = Table::new(
        "Ablation A3 — register-context count, 6 key-based processes × 20 inits (§3.1: \"say 4 to 8\")",
        &["contexts", "user-level", "kernel fallback", "mean/init (µs)"],
    );
    for row in context_count_ablation(6, 20, &a3_context_grid()) {
        t.row_owned(vec![
            row.contexts.to_string(),
            row.user_level.to_string(),
            row.fallback.to_string(),
            format!("{:.2}", row.mean_per_init.as_us()),
        ]);
    }
    println!("{t}");
}

fn trend_projection() {
    // The paper's closing argument: CPUs get faster quicker than OSes.
    // Project Table 1 onto a host with a 10× CPU whose OS paths shrank
    // only 2× in cycles, on a 66 MHz PCI bus.
    let mut t = Table::new(
        "Trend projection — 1997 testbed vs a \"modern\" host (10× CPU, OS only 2× faster, PCI 66)",
        &["method", "1997 (µs)", "projected (µs)", "kernel/user then", "kernel/user now"],
    );
    let project = |m: DmaMethod| {
        udma::measure_initiation_with(
            udma::MachineConfig {
                cost: udma_cpu::CostModel::modern_trend_host(),
                bus_timing: udma_bus::BusTiming::pci66(),
                ..udma::MachineConfig::new(m)
            },
            500,
        )
        .mean
    };
    let old_kernel = measure_initiation(DmaMethod::Kernel, 500).mean;
    let old_user = measure_initiation(DmaMethod::ExtShadow, 500).mean;
    let new_kernel = project(DmaMethod::Kernel);
    let new_user = project(DmaMethod::ExtShadow);
    for (m, old, new) in
        [(DmaMethod::Kernel, old_kernel, new_kernel), (DmaMethod::ExtShadow, old_user, new_user)]
    {
        t.row_owned(vec![
            m.name().to_string(),
            format!("{:.2}", old.as_us()),
            format!("{:.2}", new.as_us()),
            if m == DmaMethod::Kernel {
                format!("{:.1}×", old_kernel.as_ns() / old_user.as_ns())
            } else {
                String::new()
            },
            if m == DmaMethod::Kernel {
                format!("{:.1}×", new_kernel.as_ns() / new_user.as_ns())
            } else {
                String::new()
            },
        ]);
    }
    println!("{t}");
}

fn now_broadcast() {
    let mut t = Table::new(
        "NOW fan-out — SHRIMP-1 broadcast to remote nodes (1 KiB per node)",
        &["nodes", "initiation total (µs)", "completion, last ACK (µs)", "verified"],
    );
    for nodes in [1u32, 2, 4, 8] {
        let r = udma_workloads::broadcast(nodes, 1024);
        t.row_owned(vec![
            nodes.to_string(),
            format!("{:.2}", r.initiation_time.as_us()),
            format!("{:.2}", r.completion_time.as_us()),
            r.verified.to_string(),
        ]);
    }
    println!("{t}");
}

fn transfer_latency() {
    let mut t = Table::new(
        "Transfer latency — initiation + wire (ATM 155 Mb/s link), one transfer",
        &["size (B)", "Kernel (µs)", "Ext. Shadow (µs)", "Key-based (µs)", "init share @ Ext"],
    );
    for size in [64u64, 256, 1024, 4096, 8192] {
        let k = udma::measure_transfer_latency(DmaMethod::Kernel, size);
        let e = udma::measure_transfer_latency(DmaMethod::ExtShadow, size);
        let key = udma::measure_transfer_latency(DmaMethod::KeyBased, size);
        let init = udma::measure_initiation(DmaMethod::ExtShadow, 100).mean;
        t.row_owned(vec![
            size.to_string(),
            format!("{:.1}", k.as_us()),
            format!("{:.1}", e.as_us()),
            format!("{:.1}", key.as_us()),
            format!("{:.0}%", 100.0 * init.as_us() / e.as_us()),
        ]);
    }
    println!("{t}");
}

fn messaging_layer() {
    let mut t = Table::new(
        "Application level — udma-msg channel, per-message cost (µs, 24 msgs)",
        &["method", "32 B", "128 B", "1 KiB"],
    );
    for method in
        [DmaMethod::Kernel, DmaMethod::KeyBased, DmaMethod::ExtShadow, DmaMethod::Repeated5]
    {
        let mut row = vec![method.name().to_string()];
        for words in [4u64, 16, 128] {
            let cfg = udma_msg::ChannelConfig { slots: 4, payload_words: words };
            let cost = udma_msg::measure_messaging(method, &cfg, 24);
            row.push(format!("{:.2}", cost.per_message.as_us()));
        }
        t.row_owned(row);
    }
    println!("{t}");
}

fn pingpong_latency() {
    let mut t = Table::new(
        "Application level — ping-pong round-trip latency (one-word messages, 16 rounds)",
        &["method", "round trip (µs)"],
    );
    for cost in udma_msg::pingpong_comparison(16) {
        t.row_owned(vec![
            cost.method.name().to_string(),
            format!("{:.2}", cost.round_trip.as_us()),
        ]);
    }
    println!("{t}");
}

fn microbench_host(iters: u32) {
    let mut t = Table::new(
        "Host microbenchmarks (lmbench-style, on the simulated Alpha 3000/300)",
        &["primitive", "measured", "paper/model reference"],
    );
    t.row_owned(vec![
        "empty syscall".into(),
        format!("{:.2} µs", empty_syscall(iters).as_us()),
        "1 000–5 000 cycles (lmbench, cited in §2.2) = 6.7–33 µs @150 MHz".into(),
    ]);
    t.row_owned(vec![
        "context switch".into(),
        format!("{:.2} µs", context_switch(iters.min(300)).as_us()),
        "model constant 1 800 cycles = 12 µs".into(),
    ]);
    t.row_owned(vec![
        "TLB miss".into(),
        format!("{:.0} ns", tlb_miss(64, 4).as_ns()),
        "model constant 30 cycles = 200 ns".into(),
    ]);
    let (hot, cold) = dcache_effect(iters.min(400));
    t.row_owned(vec![
        "cacheable load, hot / thrashing".into(),
        format!("{:.0} ns / {:.0} ns", hot.as_ns(), cold.as_ns()),
        "2 cycles hit, DRAM latency miss (the §3.4 \"caching effects\")".into(),
    ]);
    println!("{t}");
}

fn e13_remote_va(pages: u64) {
    let mut t = Table::new(
        "E13 — remote virtual-address DMA: NACK round-trip cost vs link and fault rate",
        &[
            "link",
            "wire latency",
            "prefaulted",
            "remote faults",
            "NACK stall (µs)",
            "completion (µs)",
        ],
    );
    let links =
        [LinkModel::ethernet10(), LinkModel::atm155(), LinkModel::atm622(), LinkModel::gigabit()];
    for row in udma_workloads::remote_fault_sweep(&links, &[0, 50, 100], pages) {
        t.row_owned(vec![
            row.link.to_string(),
            format!("{:.0} µs", row.link_latency.as_us()),
            format!("{}%", row.prefaulted_pct),
            row.remote_faults.to_string(),
            format!("{:.2}", row.nack_stall.as_us()),
            format!("{:.2}", row.completion.as_us()),
        ]);
    }
    println!("{t}");
}

fn e14_lossy_link(loss_pcts: &[u32], budgets: &[u32], pages: u64, transfers: u32) {
    let mut t = Table::new(
        "E14 — reliable delivery over a lossy link: goodput and p99 completion vs loss × budget",
        &[
            "loss",
            "budget",
            "completed",
            "aborted",
            "retransmits",
            "goodput (MB/s)",
            "p99 completion (µs)",
        ],
    );
    for row in udma_workloads::lossy_link_sweep(loss_pcts, budgets, pages, transfers) {
        t.row_owned(vec![
            format!("{}%", row.loss_pct),
            row.retry_budget.to_string(),
            format!("{}/{}", row.completed, row.transfers),
            row.link_failed.to_string(),
            row.retransmits.to_string(),
            format!("{:.2}", row.goodput_mb_s),
            format!("{:.2}", row.p99_completion.as_us()),
        ]);
    }
    println!("{t}");
}

fn e15_translation_pipeline(pages: u64) {
    let mut t = Table::new(
        "E15 — translation pipeline: prefetch depth × IOTLB capacity × chunk coalescing",
        &[
            "variant",
            "depth",
            "IOTLB",
            "coalesce",
            "chunks",
            "misses",
            "hidden",
            "NACKs",
            "stall (µs)",
            "completion (µs)",
        ],
    );
    let rows = udma_workloads::pipeline_sweep(&[0, 2, 8], &[8, 64], &[1, 8], pages)
        .into_iter()
        .chain(udma_workloads::remote_announce_sweep(64, pages));
    for row in rows {
        t.row_owned(vec![
            row.variant.to_string(),
            row.depth.to_string(),
            row.entries.to_string(),
            row.max_coalesce.to_string(),
            row.chunks.to_string(),
            row.misses.to_string(),
            row.prefetch_hidden.to_string(),
            row.nacks.to_string(),
            format!("{:.2}", row.stall.as_us()),
            format!("{:.2}", row.completion.as_us()),
        ]);
    }
    println!("{t}");
}

fn e16_shard_scaling(node_counts: &[u32], shard_counts: &[usize]) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut t = Table::new(
        "E16 — sharded sim core: events/sec and speedup by shard count (every row digest-checked \
         against the sequential oracle)",
        &["nodes", "shards", "runner", "events", "rounds", "done", "wall (ms)", "ev/s", "speedup"],
    );
    for row in udma_workloads::shard_scale_sweep(node_counts, shard_counts, 0xE16) {
        t.row_owned(vec![
            row.nodes.to_string(),
            row.shards.to_string(),
            format!("{:?}", row.runner),
            row.events.to_string(),
            row.rounds.to_string(),
            row.completed.to_string(),
            format!("{:.3}", row.wall_ms),
            format!("{:.0}", row.events_per_sec),
            format!("{:.2}x", row.speedup),
        ]);
    }
    println!("{t}");
    println!(
        "(host cores: {cores} — parallel speedup over the oracle needs cores to spend; on a \
         single-core host the parallel rows measure barrier overhead, not scaling)\n"
    );
}

fn e17_context_virtualization(process_counts: &[u32], posts: u32) {
    let mut t = Table::new(
        "E17 — context virtualization: 100 → 100k logical processes on \"say 4 to 8\" register \
         contexts (LRU victims, hot-set locality)",
        &[
            "procs",
            "ctx",
            "p50 (µs)",
            "p99 (µs)",
            "hit",
            "steal/post",
            "fallbacks",
            "spills",
            "fills",
            "steals",
            "busy-skips",
            "starved",
        ],
    );
    for &contexts in &e17_context_grid() {
        for row in context_pressure_sweep(
            process_counts,
            contexts,
            posts,
            udma_os::CtxVictimPolicy::Lru,
            0xE17,
        ) {
            t.row_owned(vec![
                row.processes.to_string(),
                row.contexts.to_string(),
                format!("{:.2}", row.p50_initiation.as_us()),
                format!("{:.2}", row.p99_initiation.as_us()),
                format!("{:.3}", row.hit_rate),
                format!("{:.3}", row.steal_rate),
                row.kernel_fallbacks.to_string(),
                // The NI-side counters, reconciled against the OS cache
                // by the test suite: spills == fills − first-touch
                // fills, steals ≤ spills.
                row.ni.spills.to_string(),
                row.ni.fills.to_string(),
                row.ni.steals.to_string(),
                row.os.busy_skips.to_string(),
                row.ni.starvations.to_string(),
            ]);
        }
    }
    println!("{t}");

    let mut q = Table::new(
        "E17 — hostile-tenant QoS: 2 guaranteed victims vs a best-effort burst on 6 contexts \
         (acceptance: with QoS, victim p99 ≤ 2× uncontended)",
        &[
            "QoS",
            "victim p50 (µs)",
            "victim p99 (µs)",
            "uncontended p99 (µs)",
            "degradation",
            "victim fallbacks",
            "hostile throttled",
            "hostile fallbacks",
        ],
    );
    for qos in [false, true] {
        let row = hostile_tenant_scenario(6, 2, 48, 50, qos, 0xE17);
        q.row_owned(vec![
            if qos { "on" } else { "off" }.to_string(),
            format!("{:.2}", row.victim_p50.as_us()),
            format!("{:.2}", row.victim_p99.as_us()),
            format!("{:.2}", row.uncontended_p99.as_us()),
            format!("{:.2}x", row.degradation),
            row.victim_fallbacks.to_string(),
            row.hostile_throttled.to_string(),
            row.hostile_fallbacks.to_string(),
        ]);
    }
    println!("{q}");
}

fn e18_coherence(sizes: &[u64], adversary_rounds: u64) {
    let mut t = Table::new(
        "E18 — coherence-aware DMA: per-line software flush (non-coherent) vs per-touched-line \
         snooping (coherent) vs the paper's flat model",
        &[
            "mode",
            "producer",
            "bytes",
            "init extra (µs)",
            "snoop extra (µs)",
            "compl extra (µs)",
            "flushed",
            "dirty",
            "intervened",
            "payload",
        ],
    );
    for row in coherence_cost_sweep(sizes) {
        t.row_owned(vec![
            mode_label(row.mode).to_string(),
            row.prep.label().to_string(),
            row.bytes.to_string(),
            format!("{:.2}", row.initiation_extra.as_us()),
            format!("{:.2}", row.snoop_extra.as_us()),
            format!("{:.2}", row.completion_extra.as_us()),
            row.flush_lines.to_string(),
            row.flush_dirty.to_string(),
            row.interventions.to_string(),
            if row.payload_ok { "ok" } else { "WRONG" }.to_string(),
        ]);
    }
    println!("{t}");

    let fs = false_sharing_adversary(adversary_rounds);
    println!(
        "E18 false-sharing adversary ({} rounds on one line): {} writeback-interventions, \
         {} invalidations, {:.2} µs snoop time, merge {}\n",
        fs.rounds,
        fs.interventions,
        fs.invalidations,
        fs.dma_snoop_time.as_us(),
        if fs.merge_exact && fs.consumer_reads_ok { "exact" } else { "CORRUPT" }
    );
}

fn e19_node_fault(
    nodes: u32,
    crash_counts: &[u32],
    reboot_us: &[u64],
    lease_us: &[u64],
    shard_counts: &[usize],
) {
    let mut t = Table::new(
        "E19 — node fault domain: goodput, availability and recovery latency by crash rate × \
         reboot time × detection lease (every row digest-checked against the sequential oracle \
         at every shard count; the zero-crash row pinned delta-free)",
        &[
            "crashes",
            "reboot (µs)",
            "lease (µs)",
            "posted",
            "done",
            "node-down",
            "avail",
            "goodput (Mb/s)",
            "rec p50 (µs)",
            "rec p99 (µs)",
            "fenced",
            "regrants",
        ],
    );
    for row in udma_workloads::node_fault_sweep(
        nodes,
        crash_counts,
        reboot_us,
        lease_us,
        shard_counts,
        0xE19,
    ) {
        t.row_owned(vec![
            row.crashes.to_string(),
            row.reboot_us.to_string(),
            row.lease_us.to_string(),
            row.posted.to_string(),
            row.completed.to_string(),
            row.node_down.to_string(),
            format!("{:.3}", row.availability),
            format!("{:.1}", row.goodput_mbps),
            format!("{:.2}", row.recovery_p50.as_us()),
            format!("{:.2}", row.recovery_p99.as_us()),
            row.fenced.to_string(),
            row.regrants.to_string(),
        ]);
    }
    println!("{t}");
}

fn e20_descriptor_rings(transfers: u32) {
    let mut t = Table::new(
        "E20 — doorbell-batched descriptor rings: per-transfer initiation cost vs queue depth \
         (key-based per-post sequence as the baseline; depth 1 pins to it exactly)",
        &["depth", "per-transfer (µs)", "per-post (µs)", "amortization"],
    );
    for row in ring_initiation_sweep(&e20_depth_grid(), transfers) {
        t.row_owned(vec![
            row.depth.to_string(),
            format!("{:.2}", row.mean_initiation.as_us()),
            format!("{:.2}", row.per_post_baseline.as_us()),
            format!("{:.2}×", row.speedup),
        ]);
    }
    println!("{t}");
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    if smoke {
        // A fast end-to-end health check for CI: one representative
        // experiment per subsystem (measurement, exploration, sweeps,
        // keys, application layer), at reduced iteration counts.
        println!("# udma reproduction — smoke report (reduced iterations)\n");
        e1_table1(50);
        e4_e5_e6_attacks();
        e8_crossover(50);
        e9_atomics(50);
        e10_key_guessing();
        now_broadcast();
        e13_remote_va(4);
        e14_lossy_link(&[0, 25], &[2, 6], 2, 6);
        e15_translation_pipeline(4);
        e16_shard_scaling(&[16], &[2, 4]);
        e17_context_virtualization(&[100, 2_000], 400);
        e18_coherence(&[1024, 8192], 16);
        e19_node_fault(8, &[0, 2], &[300], &[200], &[2, 4]);
        e20_descriptor_rings(32);
        microbench_host(50);
        return;
    }
    println!("# udma reproduction — experiment report\n");
    e1_table1(1_000);
    e2_kernel_decomposition();
    e3_races();
    e4_e5_e6_attacks();
    e7_bus_sweep();
    e8_crossover(500);
    e9_atomics(500);
    e10_key_guessing();
    contention_extra();
    transfer_latency();
    now_broadcast();
    trend_projection();
    ablation_quantum();
    ablation_write_buffer();
    ablation_contexts();
    e13_remote_va(8);
    e14_lossy_link(&[0, 10, 20, 30, 40], &[1, 3, 6], 4, 16);
    e15_translation_pipeline(8);
    e16_shard_scaling(&[16, 64], &[1, 2, 4, 8]);
    e17_context_virtualization(&[100, 1_000, 10_000, 100_000], 2_000);
    e18_coherence(&[1024, 8192, 65536, 262144], 64);
    e19_node_fault(12, &[0, 1, 2, 4], &[150, 300, 600], &[100, 200], &[1, 2, 4, 8]);
    e20_descriptor_rings(480);
    messaging_layer();
    pingpong_latency();
    microbench_host(500);
}
