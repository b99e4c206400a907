//! Ping-pong round-trip latency — the classic NOW microbenchmark.
//!
//! Two processes own one channel each (A→B and B→A) and bounce a
//! one-word message back and forth `rounds` times. The round-trip time
//! is dominated by two DMA initiations plus two flag handshakes, so the
//! initiation method shows up directly — the measurement SHRIMP,
//! Hamlyn and Telegraphos papers all report.

use crate::{emit_recv_one, emit_send_one, receiver_spec, sender_spec, ChannelConfig, ChannelView};
use udma::{DmaMethod, Machine, ProcessEnv};
use udma_bus::SimTime;
use udma_cpu::{ProgramBuilder, RoundRobin};

/// Result of a ping-pong run.
#[derive(Clone, Copy, Debug)]
pub struct PingPongCost {
    /// The initiation method.
    pub method: DmaMethod,
    /// Round trips performed.
    pub rounds: u64,
    /// Mean round-trip time.
    pub round_trip: SimTime,
}

/// One half of the ping-pong: receive `rounds` one-word messages on the
/// owned channel (buffers 0/1), sending one on the peer channel (buffers
/// 2/3/4 = staging/ring/ctrl) — in `initiator` order for the ping side.
fn pingpong_program(
    env: &ProcessEnv,
    cfg: &ChannelConfig,
    rounds: u64,
    initiator: bool,
) -> udma_cpu::Program {
    // View shifts: owned channel is buffers [0]=ring,[1]=ctrl; outgoing
    // channel is [2]=staging,[3]=peer ring,[4]=peer ctrl. The channel
    // emitters expect fixed indices, so build per-round programs by
    // composing single-message sends/receives with shifted views.
    // Owned channel at buffers 0/1; outgoing channel at 2/3/4.
    let recv_view = ChannelView::RECEIVER;
    let send_view = ChannelView { staging: 2, ring: 3, ctrl: 4 };
    let mut b = ProgramBuilder::new();
    for round in 0..rounds {
        let msg = vec![round + 1];
        if initiator {
            b = emit_send_one(env, cfg, send_view, round, &msg, b);
            b = emit_recv_one(env, cfg, recv_view, round, b);
        } else {
            b = emit_recv_one(env, cfg, recv_view, round, b);
            b = emit_send_one(env, cfg, send_view, round, &msg, b);
        }
    }
    b.halt().build()
}

/// Measures the mean round-trip time of `rounds` ping-pongs under
/// `method`.
///
/// # Panics
///
/// Panics if the exchange does not complete or a payload is corrupted.
pub fn measure_pingpong(method: DmaMethod, rounds: u64) -> PingPongCost {
    let cfg = ChannelConfig { slots: 2, payload_words: 1 };
    let mut m = Machine::with_method(method);

    // Process A owns channel BA (receives pongs), sends on channel AB.
    // Process B owns channel AB (receives pings), sends on channel BA.
    // Spawn both receivers' ring+ctrl first via the standard specs, then
    // extend each with the peer's shared views.
    let a = {
        let spec = receiver_spec(&cfg); // buffers 0,1 = A's owned channel
        m.spawn(&spec, |_| ProgramBuilder::new().halt().build())
    };
    let b = {
        let mut spec = receiver_spec(&cfg);
        // 2 = staging, 3/4 = views of A's ring/ctrl.
        let peer = sender_spec(&cfg, a);
        spec.buffers.extend(peer.buffers);
        m.spawn(&spec, |env| pingpong_program(env, &cfg, rounds, false))
    };
    // A needs its program *after* B exists (shared views of B's ring).
    // The machine spawns programs at creation time, so re-create A's
    // side as a third process: A above was only the channel *owner*;
    // the actual pinger is this process sharing A's buffers.
    let pinger = {
        let mut spec = udma::ProcessSpec {
            buffers: vec![
                udma::BufferSpec::shared(
                    udma::ShareRef { pid: a, buffer: 0 },
                    udma_mem::Perms::READ_WRITE,
                ),
                udma::BufferSpec::shared(
                    udma::ShareRef { pid: a, buffer: 1 },
                    udma_mem::Perms::READ_WRITE,
                ),
            ],
            ..Default::default()
        };
        let peer = sender_spec(&cfg, b);
        spec.buffers.extend(peer.buffers);
        m.spawn(&spec, |env| pingpong_program(env, &cfg, rounds, true))
    };

    let out = m.run_with(&mut RoundRobin::new(40), 40_000_000);
    assert!(out.finished, "{method}: ping-pong did not complete");

    // Both sides saw every round's payload: sum of 1..=rounds.
    let expect: u64 = (1..=rounds).sum();
    assert_eq!(m.reg(pinger, crate::CHECKSUM_REG), expect, "{method}: pinger sum");
    assert_eq!(m.reg(b, crate::CHECKSUM_REG), expect, "{method}: ponger sum");

    PingPongCost { method, rounds, round_trip: SimTime::from_ps(m.time().as_ps() / rounds) }
}

/// Convenience: compare round-trip latency across methods.
pub fn pingpong_comparison(rounds: u64) -> Vec<PingPongCost> {
    [
        DmaMethod::Kernel,
        DmaMethod::KeyBased,
        DmaMethod::ExtShadow,
        DmaMethod::Repeated5,
        DmaMethod::Pal,
    ]
    .into_iter()
    .map(|m| measure_pingpong(m, rounds))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pingpong_completes_and_checks_out() {
        let cost = measure_pingpong(DmaMethod::ExtShadow, 12);
        assert_eq!(cost.rounds, 12);
        assert!(cost.round_trip > SimTime::ZERO);
    }

    #[test]
    fn user_level_round_trips_beat_kernel_round_trips() {
        let rows = pingpong_comparison(10);
        let kernel = rows[0].round_trip;
        for r in &rows[1..] {
            assert!(r.round_trip < kernel, "{}: {} !< kernel {}", r.method, r.round_trip, kernel);
        }
    }

    #[test]
    fn round_trip_is_deterministic() {
        let a = measure_pingpong(DmaMethod::KeyBased, 8).round_trip;
        let b = measure_pingpong(DmaMethod::KeyBased, 8).round_trip;
        assert_eq!(a, b);
    }
}
