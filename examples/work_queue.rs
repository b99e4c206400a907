//! A master/worker pool over user-level DMA channels: the master farms
//! out work items to two workers over per-worker request channels; each
//! worker computes `3x + 1` and returns the result over its reply
//! channel. Every hop is a user-level DMA; the kernel is idle after
//! setup.
//!
//! ```text
//! cargo run --release --example work_queue
//! ```

use udma::{BufferSpec, DmaMethod, Machine, ProcessSpec, ShareRef};
use udma_cpu::{Pid, ProgramBuilder, Reg, RoundRobin};
use udma_mem::Perms;
use udma_msg::{emit_recv_one, emit_send_one, receiver_spec, ChannelConfig, ChannelView};

const ITEMS: u64 = 12;
const WORKERS: u64 = 2;

fn main() {
    // Rings sized so neither requests nor replies can back up (6 items
    // per worker): no cyclic blocking between master sends and worker
    // replies.
    let cfg = ChannelConfig { slots: 8, payload_words: 1 };
    let mut m = Machine::with_method(DmaMethod::KeyBased);

    // Reply channels, owned by two placeholder processes the master will
    // alias (pids 0 and 1 own reply rings; the master reads them).
    let reply_owner: Vec<Pid> = (0..WORKERS)
        .map(|_| {
            let mut spec = receiver_spec(&cfg);
            spec.want_ctx = Some(false); // placeholders must not consume contexts
            m.spawn(&spec, |_| ProgramBuilder::new().halt().build())
        })
        .collect();

    // Workers own their request channels and send replies.
    let workers: Vec<Pid> = (0..WORKERS)
        .map(|w| {
            let mut spec = receiver_spec(&cfg); // 0/1: own request channel
            spec.buffers.push(BufferSpec::rw(1)); // 2: staging
            spec.buffers.push(BufferSpec::shared(
                ShareRef { pid: reply_owner[w as usize], buffer: 0 },
                Perms::READ_WRITE,
            )); // 3: reply ring
            spec.buffers.push(BufferSpec::shared(
                ShareRef { pid: reply_owner[w as usize], buffer: 1 },
                Perms::READ_WRITE,
            )); // 4: reply ctrl
            let items_for_worker = (0..ITEMS).filter(|i| i % WORKERS == w).count() as u64;
            m.spawn(&spec, |env| {
                let recv = ChannelView::RECEIVER;
                let send = ChannelView { staging: 2, ring: 3, ctrl: 4 };
                let mut b = ProgramBuilder::new();
                for seq in 0..items_for_worker {
                    // Receive x (first word lands in r6)…
                    b = emit_recv_one(env, &cfg, recv, seq, b);
                    // …compute 3x + 1…
                    b = b
                        .add(Reg::R1, Reg::R6, Reg::R6)
                        .add(Reg::R1, Reg::R1, Reg::R6)
                        .add_imm(Reg::R1, Reg::R1, 1)
                        .store(env.buffer(2).va.as_u64() + 8, Reg::R1); // park it
                                                                        // …and reply. The payload staging store happens inside
                                                                        // emit_send_one from an immediate, so instead send via
                                                                        // the parked register: stage manually then reuse the
                                                                        // send path with an empty message body.
                    b = b
                        .load(Reg::R2, env.buffer(2).va.as_u64() + 8)
                        .store(env.buffer(2).va.as_u64(), Reg::R2)
                        .mb();
                    b = emit_send_one(env, &cfg, send, seq, &[], b);
                }
                b.halt().build()
            })
        })
        .collect();

    // The master: sends items to each worker's request channel, then
    // collects all replies.
    let master = {
        let mut spec = ProcessSpec::default();
        for &w in &workers {
            // Per worker: staging + request ring/ctrl views.
            spec.buffers.push(BufferSpec::rw(1));
            spec.buffers
                .push(BufferSpec::shared(ShareRef { pid: w, buffer: 0 }, Perms::READ_WRITE));
            spec.buffers
                .push(BufferSpec::shared(ShareRef { pid: w, buffer: 1 }, Perms::READ_WRITE));
        }
        for &r in &reply_owner {
            // Per worker: reply ring/ctrl views (read + flag writes).
            spec.buffers
                .push(BufferSpec::shared(ShareRef { pid: r, buffer: 0 }, Perms::READ_WRITE));
            spec.buffers
                .push(BufferSpec::shared(ShareRef { pid: r, buffer: 1 }, Perms::READ_WRITE));
        }
        m.spawn(&spec, |env| {
            let mut b = ProgramBuilder::new().imm(udma_msg::CHECKSUM_REG, 0);
            let mut seq = [0u64; WORKERS as usize];
            for i in 0..ITEMS {
                let w = (i % WORKERS) as usize;
                let send = ChannelView { staging: 3 * w, ring: 3 * w + 1, ctrl: 3 * w + 2 };
                b = emit_send_one(env, &cfg, send, seq[w], &[i], b);
                seq[w] += 1;
            }
            let base = 3 * WORKERS as usize;
            let mut rseq = [0u64; WORKERS as usize];
            for i in 0..ITEMS {
                let w = (i % WORKERS) as usize;
                let recv = ChannelView { staging: 0, ring: base + 2 * w, ctrl: base + 2 * w + 1 };
                b = emit_recv_one(env, &cfg, recv, rseq[w], b);
                rseq[w] += 1;
            }
            b.halt().build()
        })
    };

    let out = m.run_with(&mut RoundRobin::new(50), 20_000_000);
    assert!(out.finished, "pool did not drain");

    // Sum of all replies: Σ (3i + 1) for i in 0..ITEMS.
    let expect: u64 = (0..ITEMS).map(|i| 3 * i + 1).sum();
    let got = m.reg(master, udma_msg::CHECKSUM_REG);
    assert_eq!(got, expect);

    println!("{ITEMS} work items → {WORKERS} workers → {ITEMS} replies");
    println!("Σ(3x+1) = {got} (expected {expect}) ✓");
    assert_eq!(m.kernel().stats().dma_syscalls, 0, "fast path must stay user-level");
    println!(
        "user-level DMAs: {}, kernel DMA syscalls: {}, context switches: {}",
        m.engine().core().stats().started,
        m.kernel().stats().dma_syscalls,
        m.executor().stats().context_switches,
    );
    println!("simulated time: {}", m.time());
}
