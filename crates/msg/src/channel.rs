//! The SPSC channel: layout, program emission, endpoint handles.

use udma::{emit_dma, BufferSpec, DmaRequest, Machine, ProcessEnv, ProcessSpec, ShareRef};
use udma_cpu::{Pid, ProgramBuilder, Reg};
use udma_mem::{Perms, PAGE_SIZE};
use udma_nic::DMA_FAILURE;

/// Register in which the receiver accumulates the payload checksum.
pub const CHECKSUM_REG: Reg = Reg::R7;

/// Channel geometry.
#[derive(Clone, Copy, Debug)]
pub struct ChannelConfig {
    /// Ring slots (one page each).
    pub slots: u64,
    /// Payload words (u64) per message; must fit a page.
    pub payload_words: u64,
}

impl Default for ChannelConfig {
    /// Four slots of 16 words (128-byte messages) — small messages, the
    /// regime the paper's motivation is about.
    fn default() -> Self {
        ChannelConfig { slots: 4, payload_words: 16 }
    }
}

impl ChannelConfig {
    /// Payload bytes per message.
    pub fn payload_bytes(&self) -> u64 {
        self.payload_words * 8
    }

    /// Validates the geometry.
    ///
    /// # Panics
    ///
    /// Panics if a message would not fit in a page or the ring is empty.
    pub fn validate(&self) {
        assert!(self.slots > 0, "ring needs at least one slot");
        assert!(
            self.payload_bytes() <= PAGE_SIZE,
            "a message must fit one page (user-level DMA cannot cross pages)"
        );
        assert!(self.payload_words > 0, "empty messages carry no words");
    }
}

/// Buffer indices of one channel within a process's environment.
///
/// The canonical single-channel layout is [`ChannelView::RECEIVER`] /
/// [`ChannelView::SENDER`]; processes holding several channels (e.g. the
/// ping-pong benchmark, or a master with one channel per worker) shift
/// the indices.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChannelView {
    /// Buffer index of the ring (receiver-owned or shared view).
    pub ring: usize,
    /// Buffer index of the control page.
    pub ctrl: usize,
    /// Buffer index of the sender's staging page (senders only; pick the
    /// ring index for receivers, it is unused).
    pub staging: usize,
}

impl ChannelView {
    /// The receive side of [`receiver_spec`]: ring at 0, ctrl at 1.
    pub const RECEIVER: ChannelView = ChannelView { ring: 0, ctrl: 1, staging: 0 };
    /// The send side of [`sender_spec`]: staging 0, ring 1, ctrl 2.
    pub const SENDER: ChannelView = ChannelView { ring: 1, ctrl: 2, staging: 0 };
}

/// Emits ONE message send through `view`: wait for the slot to drain,
/// stage the payload, DMA it, raise the flag. `seq` is the message's
/// sequence number (selects the slot).
///
/// The DMA always moves the channel's full `payload_words`; if `msg` is
/// shorter, the tail carries whatever the staging page last held. Pad
/// messages to the configured width (or size the channel to the message)
/// when the receiver reads the full slot.
pub fn emit_send_one(
    env: &ProcessEnv,
    cfg: &ChannelConfig,
    view: ChannelView,
    seq: u64,
    msg: &[u64],
    b: ProgramBuilder,
) -> ProgramBuilder {
    assert!(msg.len() as u64 <= cfg.payload_words, "message too long");
    let slot = seq % cfg.slots;
    let flag = env.addr_in(view.ctrl, slot * 8).as_u64();
    let slot_va = env.addr_in(view.ring, slot * PAGE_SIZE);
    let staging = env.buffer(view.staging).va;

    let wait = b.here();
    let mut b = b.load(Reg::R4, flag).bne(Reg::R4, 0, wait);
    for (j, &w) in msg.iter().enumerate() {
        b = b.store(staging.as_u64() + 8 * j as u64, w);
    }
    b = b.mb();
    let req = DmaRequest::new(staging, slot_va, cfg.payload_bytes());
    let resend = b.here();
    b = emit_dma(env, b, &req, &mut 0);
    b.beq(Reg::R0, DMA_FAILURE, resend).store(flag, 1u64).mb()
}

/// Emits ONE message receive through `view`: wait for the flag, checksum
/// the payload into [`CHECKSUM_REG`] (and leave the first word in `r6`),
/// drop the flag.
pub fn emit_recv_one(
    env: &ProcessEnv,
    cfg: &ChannelConfig,
    view: ChannelView,
    seq: u64,
    b: ProgramBuilder,
) -> ProgramBuilder {
    let slot = seq % cfg.slots;
    let flag = env.addr_in(view.ctrl, slot * 8).as_u64();
    let base = env.addr_in(view.ring, slot * PAGE_SIZE).as_u64();
    let wait = b.here();
    let mut b = b.load(Reg::R4, flag).beq(Reg::R4, 0, wait);
    b = b.load(Reg::R6, base);
    for j in 0..cfg.payload_words {
        b = b.load(Reg::R5, base + 8 * j).add(CHECKSUM_REG, CHECKSUM_REG, Reg::R5);
    }
    b.store(flag, 0u64).mb()
}

/// The receiver's mappings: ring then ctrl.
pub fn receiver_spec(cfg: &ChannelConfig) -> ProcessSpec {
    cfg.validate();
    ProcessSpec {
        buffers: vec![BufferSpec::rw(cfg.slots), BufferSpec::rw(1)],
        ..Default::default()
    }
}

/// The sender's mappings: own staging page plus shared views of the
/// receiver's ring and ctrl.
pub fn sender_spec(cfg: &ChannelConfig, receiver: Pid) -> ProcessSpec {
    cfg.validate();
    ProcessSpec {
        buffers: vec![
            BufferSpec::rw(1),
            BufferSpec::shared(ShareRef { pid: receiver, buffer: 0 }, Perms::READ_WRITE),
            BufferSpec::shared(ShareRef { pid: receiver, buffer: 1 }, Perms::READ_WRITE),
        ],
        ..Default::default()
    }
}

/// Emits the sender's whole program: for each message, wait for the slot
/// to drain, stage the payload, DMA it into the slot, raise the flag.
pub fn emit_send_all(
    env: &ProcessEnv,
    cfg: &ChannelConfig,
    messages: &[Vec<u64>],
) -> ProgramBuilder {
    let mut b = ProgramBuilder::new();
    for (i, msg) in messages.iter().enumerate() {
        b = emit_send_one(env, cfg, ChannelView::SENDER, i as u64, msg, b);
    }
    b
}

/// Emits the receiver's whole program: for each of `count` messages, wait
/// for the slot's flag, checksum the payload into [`CHECKSUM_REG`], drop
/// the flag.
pub fn emit_receive_all(env: &ProcessEnv, cfg: &ChannelConfig, count: u64) -> ProgramBuilder {
    let mut b = ProgramBuilder::new().imm(CHECKSUM_REG, 0);
    for i in 0..count {
        b = emit_recv_one(env, cfg, ChannelView::RECEIVER, i, b);
    }
    b
}

/// Deterministic test payloads: message `i`, word `j` carries
/// `i·1000 + j + 1`, padded with zeros to the configured width.
pub fn test_messages(cfg: &ChannelConfig, count: u64) -> Vec<Vec<u64>> {
    (0..count).map(|i| (0..cfg.payload_words).map(|j| i * 1000 + j + 1).collect()).collect()
}

/// Reference checksum over whole messages (wrapping sum of all words).
pub fn checksum(messages: &[Vec<u64>]) -> u64 {
    messages.iter().flatten().fold(0u64, |acc, &w| acc.wrapping_add(w))
}

/// Spawned channel endpoints.
#[derive(Clone, Copy, Debug)]
pub struct Endpoints {
    /// The receiving process.
    pub receiver: Pid,
    /// The sending process.
    pub sender: Pid,
}

impl Endpoints {
    /// Spawns a receiver and a sender exchanging `messages` over a fresh
    /// channel on `machine`. Run the machine with a *preemptive*
    /// scheduler afterwards (the endpoints poll; run-to-completion would
    /// spin on the first wait).
    pub fn spawn(machine: &mut Machine, cfg: &ChannelConfig, messages: &[Vec<u64>]) -> Endpoints {
        let count = messages.len() as u64;
        let receiver = machine
            .spawn(&receiver_spec(cfg), |env| emit_receive_all(env, cfg, count).halt().build());
        let sender = machine.spawn(&sender_spec(cfg, receiver), |env| {
            emit_send_all(env, cfg, messages).halt().build()
        });
        Endpoints { receiver, sender }
    }

    /// The checksum the receiver accumulated.
    pub fn received_checksum(&self, machine: &Machine) -> u64 {
        machine.reg(self.receiver, CHECKSUM_REG)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udma::{DmaMethod, Machine};
    use udma_cpu::{RandomPreempt, RoundRobin};

    fn exchange(method: DmaMethod, count: u64, cfg: ChannelConfig) -> (Machine, Endpoints) {
        let messages = test_messages(&cfg, count);
        let mut m = Machine::with_method(method);
        let ends = Endpoints::spawn(&mut m, &cfg, &messages);
        let out = m.run_with(&mut RoundRobin::new(60), 5_000_000);
        assert!(out.finished, "{method}: channel did not drain");
        (m, ends)
    }

    #[test]
    fn delivers_all_messages_for_every_user_level_method() {
        let cfg = ChannelConfig::default();
        for method in [
            DmaMethod::Kernel,
            DmaMethod::KeyBased,
            DmaMethod::ExtShadow,
            DmaMethod::Repeated5,
            DmaMethod::Pal,
        ] {
            let (m, ends) = exchange(method, 10, cfg);
            let expected = checksum(&test_messages(&cfg, 10));
            assert_eq!(ends.received_checksum(&m), expected, "{method}");
            assert_eq!(m.engine().core().stats().started, 10, "{method}");
        }
    }

    #[test]
    fn flow_control_handles_more_messages_than_slots() {
        let cfg = ChannelConfig { slots: 2, payload_words: 4 };
        let (m, ends) = exchange(DmaMethod::KeyBased, 9, cfg);
        assert_eq!(ends.received_checksum(&m), checksum(&test_messages(&cfg, 9)));
    }

    #[test]
    fn single_slot_ring_serialises_fully() {
        let cfg = ChannelConfig { slots: 1, payload_words: 2 };
        let (m, ends) = exchange(DmaMethod::ExtShadow, 5, cfg);
        assert_eq!(ends.received_checksum(&m), checksum(&test_messages(&cfg, 5)));
    }

    #[test]
    fn survives_random_preemption() {
        let cfg = ChannelConfig::default();
        let messages = test_messages(&cfg, 8);
        for seed in 0..10 {
            let mut m = Machine::with_method(DmaMethod::Repeated5);
            let ends = Endpoints::spawn(&mut m, &cfg, &messages);
            let out = m.run_with(&mut RandomPreempt::new(seed, 0.15), 5_000_000);
            assert!(out.finished, "seed {seed}");
            assert_eq!(ends.received_checksum(&m), checksum(&messages), "seed {seed}");
        }
    }

    #[test]
    fn last_message_bytes_are_in_the_ring_slot() {
        let cfg = ChannelConfig::default();
        let count = 6u64;
        let (m, ends) = exchange(DmaMethod::KeyBased, count, cfg);
        let messages = test_messages(&cfg, count);
        let last = &messages[count as usize - 1];
        let slot = (count - 1) % cfg.slots;
        let frame = m.env(ends.receiver).buffer(0).first_frame.offset(slot);
        for (j, &w) in last.iter().enumerate() {
            let got = m.memory().borrow().read_u64(frame.base() + 8 * j as u64).unwrap();
            assert_eq!(got, w, "word {j}");
        }
    }

    #[test]
    fn no_syscalls_on_the_user_level_fast_path() {
        let cfg = ChannelConfig::default();
        let (m, _) = exchange(DmaMethod::ExtShadow, 10, cfg);
        assert_eq!(m.executor().stats().syscalls, 0);
        assert_eq!(m.kernel().stats().dma_syscalls, 0);
    }

    #[test]
    #[should_panic(expected = "fit one page")]
    fn oversized_messages_rejected_at_config_time() {
        let cfg = ChannelConfig { slots: 2, payload_words: PAGE_SIZE / 8 + 1 };
        cfg.validate();
    }
}
