//! lmbench-style microbenchmarks of the simulated host.
//!
//! The paper leans on McVoy & Staelin's lmbench numbers ("the overhead of
//! an empty system call of commercial UNIX-like operating systems ranges
//! between 1,000 and 5,000 processor cycles"). These harnesses measure
//! the same primitives *on the simulator*, closing the loop between the
//! cost-model constants and observable behaviour.

use udma::{DmaMethod, Machine, ProcessSpec};
use udma_bus::SimTime;
use udma_cpu::{ProgramBuilder, Reg, RoundRobin};
use udma_os::SYS_NOOP;

/// Mean cost of an empty syscall, measured over `iters` back-to-back
/// `SYS_NOOP`s (lmbench's `lat_syscall null`).
pub fn empty_syscall(iters: u32) -> SimTime {
    let mut m = Machine::with_method(DmaMethod::Kernel);
    m.spawn(&ProcessSpec::default(), |_| {
        let mut b = ProgramBuilder::new();
        for _ in 0..iters {
            b = b.syscall(SYS_NOOP);
        }
        b.halt().build()
    });
    let out = m.run(iters as u64 * 4 + 1_000);
    assert!(out.finished);
    SimTime::from_ps(m.time().as_ps() / iters as u64)
}

/// Mean cost of a context switch (lmbench's `lat_ctx`): two processes of
/// `work` compute-instructions each, run under quantum-1 round robin vs
/// run to completion; the difference divided by the switch count.
pub fn context_switch(work: u32) -> SimTime {
    let build = || {
        let mut m = Machine::with_method(DmaMethod::Kernel);
        for _ in 0..2 {
            m.spawn(&ProcessSpec::default(), |_| {
                let mut b = ProgramBuilder::new();
                for _ in 0..work {
                    b = b.imm(Reg::R1, 1);
                }
                b.halt().build()
            });
        }
        m
    };
    let mut solo = build();
    solo.run(1_000_000);
    let baseline = solo.time();

    let mut m = build();
    m.run_with(&mut RoundRobin::new(1), 1_000_000);
    let switches = m.executor().stats().context_switches;
    assert!(switches > 0);
    SimTime::from_ps((m.time() - baseline).as_ps() / switches)
}

/// Mean cost of a TLB miss: a pointer-chase touching `pages` distinct
/// pages (evicting a 32-entry TLB when `pages > 32`) vs the same number
/// of touches to one page.
pub fn tlb_miss(pages: u64, touches_per_page: u32) -> SimTime {
    let run = |distinct: u64| {
        let mut m = Machine::with_method(DmaMethod::Kernel);
        m.spawn(
            &ProcessSpec { buffers: vec![udma::BufferSpec::rw(pages)], ..Default::default() },
            |env| {
                let mut b = ProgramBuilder::new();
                for round in 0..touches_per_page as u64 {
                    for p in 0..distinct {
                        let _ = round;
                        b = b.load(Reg::R1, env.addr_in(0, p * udma_mem::PAGE_SIZE).as_u64());
                    }
                }
                b.halt().build()
            },
        );
        let out = m.run(10_000_000);
        assert!(out.finished);
        (m.time(), m.executor().tlb_stats())
    };
    let (hot_time, hot_stats) = run(1);
    let (cold_time, cold_stats) = run(pages);
    let extra_misses = cold_stats.misses - hot_stats.misses;
    assert!(extra_misses > 0, "sweep did not generate TLB misses");
    // Normalise for the different touch counts.
    let cold_per_touch = cold_time.as_ps() / (pages * touches_per_page as u64);
    let hot_per_touch = hot_time.as_ps() / touches_per_page as u64;
    let miss_rate = extra_misses as f64 / (pages * touches_per_page as u64) as f64;
    SimTime::from_ps(((cold_per_touch.saturating_sub(hot_per_touch)) as f64 / miss_rate) as u64)
}

/// Mean cacheable-load latency for a *hot* working set (one line hit
/// over and over) vs a *thrashing* one (stride = cache capacity, every
/// access a conflict miss). This is the "caching effects" the paper's
/// §3.4 methodology sidesteps by touching different addresses.
pub fn dcache_effect(touches: u32) -> (SimTime, SimTime) {
    let run = |stride_pages: u64, pages: u64| {
        let mut m = Machine::with_method(DmaMethod::Kernel);
        m.spawn(
            &ProcessSpec { buffers: vec![udma::BufferSpec::rw(pages)], ..Default::default() },
            |env| {
                let mut b = ProgramBuilder::new();
                for i in 0..touches as u64 {
                    let off = (i % 4) * stride_pages * udma_mem::PAGE_SIZE;
                    b = b.load(Reg::R1, env.addr_in(0, off).as_u64());
                }
                b.halt().build()
            },
        );
        let out = m.run(10_000_000);
        assert!(out.finished);
        (m.time(), m.bus().port().cpu_cache_stats())
    };
    // Hot: all touches land on one line.
    let (hot, hot_stats) = run(0, 1);
    assert!(hot_stats.hit_ratio() > 0.9, "hot set should hit");
    // Thrash: stride of one page on an 8 KiB direct-mapped cache with
    // 8 KiB pages → same set, different tags → every access misses.
    let (cold, cold_stats) = run(1, 4);
    assert!(cold_stats.hit_ratio() < 0.1, "thrashing set should miss");
    (
        SimTime::from_ps(hot.as_ps() / touches as u64),
        SimTime::from_ps(cold.as_ps() / touches as u64),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use udma_cpu::CostModel;

    #[test]
    fn empty_syscall_matches_the_cost_model() {
        let measured = empty_syscall(200);
        let model = CostModel::alpha_3000_300().syscall_round_trip();
        // Measured includes the syscall instruction issue and the tiny
        // in-kernel dispatch; within 5% of the model constant.
        let ratio = measured.as_ns() / model.as_ns();
        assert!((1.0..1.05).contains(&ratio), "ratio {ratio}");
        // …and inside the paper's lmbench band (1000–5000 cycles at
        // 150 MHz = 6.7–33 µs).
        assert!((6.7..33.3).contains(&measured.as_us()));
    }

    #[test]
    fn context_switch_matches_the_cost_model() {
        let measured = context_switch(200);
        let model = CostModel::alpha_3000_300().context_switch();
        // The workload is register-only, so the measurement isolates the
        // bare switch constant (memory-bearing workloads would add TLB
        // refills on top).
        let ratio = measured.as_ns() / model.as_ns();
        assert!((0.95..1.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn hot_loads_are_much_cheaper_than_thrashing_loads() {
        let (hot, cold) = dcache_effect(400);
        assert!(
            cold.as_ns() > 4.0 * hot.as_ns(),
            "hot {hot} vs cold {cold}: cache effect too small"
        );
    }

    #[test]
    fn tlb_miss_cost_is_observable() {
        let measured = tlb_miss(64, 4);
        let model = CostModel::alpha_3000_300().tlb_miss();
        let ratio = measured.as_ns() / model.as_ns();
        assert!((0.5..2.0).contains(&ratio), "ratio {ratio}");
    }
}
