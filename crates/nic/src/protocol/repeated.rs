//! Repeated passing of arguments (§3.3, Figures 5–8).

use crate::protocol::{InitiationProtocol, ProtocolKind};
use crate::{EngineCore, Initiator, DMA_FAILURE, DMA_PENDING, DMA_STARTED};
use udma_bus::{MemPort, SimTime};
use udma_mem::PhysAddr;

/// The direction of a shadow access, as the FSM sees it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Acc {
    St,
    Ld,
}

/// The repeated-passing state machine, parameterised over the paper's
/// three variants:
///
/// * **3-instruction** (`LOAD, STORE, LOAD`; source repeated) — broken by
///   the Figure 5 interleaving;
/// * **4-instruction** (`STORE, LOAD, STORE, LOAD`) — broken by the
///   Figure 6 interleaving when the source is readable by the attacker;
/// * **5-instruction** (`STORE, LOAD, STORE, LOAD, LOAD`) — the paper's
///   final scheme: "a DMA operation is started only if the DMA engine
///   receives a sequence of the type STORE, LOAD, STORE, LOAD, LOAD, and
///   the address arguments of instructions 1, 3 and 5 are the same, and
///   the address arguments of instructions 2 and 4 are the same as well."
///
/// There is exactly **one** FSM for the whole engine — no per-process
/// state, which is the scheme's selling point — and "if it sees anything
/// out of this order, the DMA engine resets itself". An access that
/// breaks a sequence may itself begin a fresh one.
#[derive(Clone, Debug)]
pub struct Repeated {
    kind: ProtocolKind,
    pattern: &'static [Acc],
    /// `(address, data)` of each matched access so far.
    state: Vec<(PhysAddr, u64)>,
}

impl Repeated {
    /// The 3-instruction variant (insecure; kept as the Figure 5
    /// baseline).
    pub fn three() -> Self {
        Repeated {
            kind: ProtocolKind::Repeated3,
            pattern: &[Acc::Ld, Acc::St, Acc::Ld],
            state: Vec::new(),
        }
    }

    /// The 4-instruction variant (insecure; kept as the Figure 6
    /// baseline).
    pub fn four() -> Self {
        Repeated {
            kind: ProtocolKind::Repeated4,
            pattern: &[Acc::St, Acc::Ld, Acc::St, Acc::Ld],
            state: Vec::new(),
        }
    }

    /// The 5-instruction variant (the paper's secure scheme, Figure 7).
    pub fn five() -> Self {
        Repeated {
            kind: ProtocolKind::Repeated5,
            pattern: &[Acc::St, Acc::Ld, Acc::St, Acc::Ld, Acc::Ld],
            state: Vec::new(),
        }
    }

    /// Current sequence position (test inspection).
    pub fn position(&self) -> usize {
        self.state.len()
    }

    /// Does the access at `pos` satisfy the variant's address/data
    /// equality constraints against the matched prefix?
    fn constraints_ok(&self, pos: usize, pa: PhysAddr, data: u64) -> bool {
        match (self.kind, pos) {
            // 3-instruction: loads 0 and 2 repeat the source.
            (ProtocolKind::Repeated3, 2) => pa == self.state[0].0,
            // 4-instruction: stores 0 and 2 repeat destination+size,
            // loads 1 and 3 repeat the source.
            (ProtocolKind::Repeated4, 2) => pa == self.state[0].0 && data == self.state[0].1,
            (ProtocolKind::Repeated4, 3) => pa == self.state[1].0,
            // 5-instruction: 0,2,4 repeat the destination (0,2 with equal
            // sizes); 1,3 repeat the source.
            (ProtocolKind::Repeated5, 2) => pa == self.state[0].0 && data == self.state[0].1,
            (ProtocolKind::Repeated5, 3) => pa == self.state[1].0,
            (ProtocolKind::Repeated5, 4) => pa == self.state[0].0,
            _ => true,
        }
    }

    /// The `(src, dst, size)` of a completed sequence.
    fn extract(&self) -> (PhysAddr, PhysAddr, u64) {
        match self.kind {
            ProtocolKind::Repeated3 => (self.state[0].0, self.state[1].0, self.state[1].1),
            _ => (self.state[1].0, self.state[0].0, self.state[0].1),
        }
    }

    fn on_access(
        &mut self,
        core: &mut EngineCore,
        kind: Acc,
        pa: PhysAddr,
        data: u64,
        now: SimTime,
        mem: &mut MemPort,
    ) -> u64 {
        let pos = self.state.len();
        if kind == self.pattern[pos] && self.constraints_ok(pos, pa, data) {
            self.state.push((pa, data));
            if self.state.len() == self.pattern.len() {
                let (src, dst, size) = self.extract();
                self.state.clear();
                return match core.start_user_dma(src, dst, size, Initiator::Anonymous, now, mem) {
                    Ok(_) => DMA_STARTED,
                    Err(_) => DMA_FAILURE,
                };
            }
            return DMA_PENDING;
        }
        // Out of order: reset; the offending access may start a new
        // sequence.
        core.note_sequence_reset();
        self.state.clear();
        if kind == self.pattern[0] {
            self.state.push((pa, data));
            return DMA_PENDING;
        }
        DMA_FAILURE
    }
}

impl InitiationProtocol for Repeated {
    fn kind(&self) -> ProtocolKind {
        self.kind
    }

    fn shadow_store(
        &mut self,
        core: &mut EngineCore,
        pa: PhysAddr,
        _ctx: u32,
        data: u64,
        now: SimTime,
        mem: &mut MemPort,
    ) -> SimTime {
        let _ = self.on_access(core, Acc::St, pa, data, now, mem);
        SimTime::ZERO
    }

    fn shadow_load(
        &mut self,
        core: &mut EngineCore,
        pa: PhysAddr,
        _ctx: u32,
        now: SimTime,
        mem: &mut MemPort,
    ) -> u64 {
        self.on_access(core, Acc::Ld, pa, 0, now, mem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EngineConfig;
    use udma_mem::{PhysLayout, PhysMemory, PAGE_SIZE};

    fn core() -> (EngineCore, MemPort) {
        let layout = PhysLayout::default();
        let mem = MemPort::flat(PhysMemory::new(1 << 22));
        (EngineCore::new(layout, EngineConfig::default()), mem)
    }

    fn a(page: u64) -> PhysAddr {
        PhysAddr::new(page * PAGE_SIZE)
    }

    #[test]
    fn five_instruction_happy_path() {
        let mut p = Repeated::five();
        let (mut c, mut mem) = core();
        let (dst, src, size) = (a(4), a(2), 96);
        p.shadow_store(&mut c, dst, 0, size, SimTime::ZERO, &mut mem);
        assert_eq!(p.shadow_load(&mut c, src, 0, SimTime::ZERO, &mut mem), DMA_PENDING);
        p.shadow_store(&mut c, dst, 0, size, SimTime::ZERO, &mut mem);
        assert_eq!(p.shadow_load(&mut c, src, 0, SimTime::ZERO, &mut mem), DMA_PENDING);
        assert_eq!(p.shadow_load(&mut c, dst, 0, SimTime::ZERO, &mut mem), DMA_STARTED);
        let rec = &c.mover().records()[0];
        assert_eq!((rec.src, rec.dst, rec.size), (src, dst, size));
    }

    #[test]
    fn five_instruction_mismatched_source_resets() {
        let mut p = Repeated::five();
        let (mut c, mut mem) = core();
        p.shadow_store(&mut c, a(4), 0, 64, SimTime::ZERO, &mut mem);
        assert_eq!(p.shadow_load(&mut c, a(2), 0, SimTime::ZERO, &mut mem), DMA_PENDING);
        p.shadow_store(&mut c, a(4), 0, 64, SimTime::ZERO, &mut mem);
        // Fourth access loads a *different* source → reset.
        assert_eq!(p.shadow_load(&mut c, a(3), 0, SimTime::ZERO, &mut mem), DMA_FAILURE);
        assert_eq!(p.position(), 0);
        assert!(c.mover().records().is_empty());
        assert_eq!(c.stats().sequence_resets, 1);
    }

    #[test]
    fn five_instruction_size_mismatch_resets() {
        let mut p = Repeated::five();
        let (mut c, mut mem) = core();
        p.shadow_store(&mut c, a(4), 0, 64, SimTime::ZERO, &mut mem);
        assert_eq!(p.shadow_load(&mut c, a(2), 0, SimTime::ZERO, &mut mem), DMA_PENDING);
        p.shadow_store(&mut c, a(4), 0, 65, SimTime::ZERO, &mut mem); // size differs
                                                                      // The store restarts a sequence at position 1.
        assert_eq!(p.position(), 1);
        assert!(c.mover().records().is_empty());
    }

    #[test]
    fn three_instruction_happy_path() {
        let mut p = Repeated::three();
        let (mut c, mut mem) = core();
        let (src, dst, size) = (a(2), a(4), 48);
        assert_eq!(p.shadow_load(&mut c, src, 0, SimTime::ZERO, &mut mem), DMA_PENDING);
        p.shadow_store(&mut c, dst, 0, size, SimTime::ZERO, &mut mem);
        assert_eq!(p.shadow_load(&mut c, src, 0, SimTime::ZERO, &mut mem), DMA_STARTED);
        let rec = &c.mover().records()[0];
        assert_eq!((rec.src, rec.dst, rec.size), (src, dst, size));
    }

    #[test]
    fn figure_5_attack_on_three_instruction_variant() {
        // Victim wants A→B; malicious has read access to C only.
        let mut p = Repeated::three();
        let (mut c, mut mem) = core();
        let (addr_a, addr_b, addr_c) = (a(2), a(4), a(6));
        // 1: victim      LOAD  shadow(A)
        p.shadow_load(&mut c, addr_a, 0, SimTime::ZERO, &mut mem);
        // 2: malicious   STORE shadow(foo)
        p.shadow_store(&mut c, a(7), 0, 1, SimTime::ZERO, &mut mem);
        // 3: malicious   LOAD  shadow(foo)  ← "DMA is not started"
        // (the broken load may begin a fresh sequence, but no transfer
        // has happened)
        assert_ne!(p.shadow_load(&mut c, a(7), 0, SimTime::ZERO, &mut mem), DMA_STARTED);
        assert!(c.mover().records().is_empty());
        // 4: malicious   LOAD  shadow(C)
        p.shadow_load(&mut c, addr_c, 0, SimTime::ZERO, &mut mem);
        // 5: victim      STORE size TO shadow(B)
        p.shadow_store(&mut c, addr_b, 0, 64, SimTime::ZERO, &mut mem);
        // 6: malicious   LOAD  shadow(C)   ← DMA C→B is started!
        assert_eq!(p.shadow_load(&mut c, addr_c, 0, SimTime::ZERO, &mut mem), DMA_STARTED);
        let rec = &c.mover().records()[0];
        assert_eq!((rec.src, rec.dst), (addr_c, addr_b));
    }

    #[test]
    fn figure_6_attack_on_four_instruction_variant() {
        // Victim: ST B, LD A, ST B, LD A; malicious has read access to A.
        let mut p = Repeated::four();
        let (mut c, mut mem) = core();
        let (addr_a, addr_b) = (a(2), a(4));
        p.shadow_store(&mut c, addr_b, 0, 64, SimTime::ZERO, &mut mem); // 1 victim
        assert_eq!(p.shadow_load(&mut c, addr_a, 0, SimTime::ZERO, &mut mem), DMA_PENDING); // 2 victim
        p.shadow_store(&mut c, addr_b, 0, 64, SimTime::ZERO, &mut mem); // 3 victim
                                                                        // 4: malicious LOAD shadow(A) completes the sequence → DMA starts
                                                                        // and the *malicious* process gets the success status.
        assert_eq!(p.shadow_load(&mut c, addr_a, 0, SimTime::ZERO, &mut mem), DMA_STARTED);
        assert_eq!(c.mover().records().len(), 1);
        // 5: victim's own LOAD shadow(A) is now out of order → it is told
        // the DMA did NOT start (misinformation, Figure 6).
        assert_eq!(p.shadow_load(&mut c, addr_a, 0, SimTime::ZERO, &mut mem), DMA_FAILURE);
    }

    #[test]
    fn reset_access_may_begin_new_sequence() {
        let mut p = Repeated::five();
        let (mut c, mut mem) = core();
        assert_eq!(p.shadow_load(&mut c, a(2), 0, SimTime::ZERO, &mut mem), DMA_FAILURE);
        // A store after garbage starts fresh at position 1.
        p.shadow_store(&mut c, a(4), 0, 64, SimTime::ZERO, &mut mem);
        assert_eq!(p.position(), 1);
    }

    #[test]
    fn page_crossing_transfer_still_rejected() {
        let mut p = Repeated::five();
        let (mut c, mut mem) = core();
        let dst = PhysAddr::new(4 * PAGE_SIZE + PAGE_SIZE - 8);
        let src = a(2);
        p.shadow_store(&mut c, dst, 0, 64, SimTime::ZERO, &mut mem);
        p.shadow_load(&mut c, src, 0, SimTime::ZERO, &mut mem);
        p.shadow_store(&mut c, dst, 0, 64, SimTime::ZERO, &mut mem);
        p.shadow_load(&mut c, src, 0, SimTime::ZERO, &mut mem);
        assert_eq!(p.shadow_load(&mut c, dst, 0, SimTime::ZERO, &mut mem), DMA_FAILURE);
        assert!(c.mover().records().is_empty());
    }
}
