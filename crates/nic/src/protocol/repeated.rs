//! Repeated passing of arguments (§3.3, Figures 5–8).

use crate::protocol::{started, Op, ProtocolKind, Role, ShadowAccess};
use crate::{EngineCore, Initiator, DMA_FAILURE, DMA_PENDING};
use udma_bus::{MemPort, SimTime};
use udma_mem::PhysAddr;

/// The repeated-passing state machine, run over one row of
/// [`ProtocolKind::sequence`]. The 3- and 4-access rows fall to the
/// Figure 5 and Figure 6 interleavings; the 5-access row is the paper's
/// final scheme: "a DMA operation is started only if the DMA engine
/// receives a sequence of the type STORE, LOAD, STORE, LOAD, LOAD, and
/// the address arguments of instructions 1, 3 and 5 are the same, and
/// the address arguments of instructions 2 and 4 are the same as well."
///
/// Those checks follow from the row: an access whose role already
/// occurred must repeat that role's first address, and every store after
/// the first must repeat the first store's payload. A completed row
/// starts a transfer from the first source address to the first
/// destination address, sized by the first store.
///
/// There is exactly **one** FSM for the whole engine — no per-process
/// state, which is the scheme's selling point — and "if it sees anything
/// out of this order, the DMA engine resets itself". An access that
/// breaks a sequence may itself begin a fresh one.
#[derive(Clone, Debug)]
pub struct Repeated {
    kind: ProtocolKind,
    row: &'static [ShadowAccess],
    /// Accesses matched so far.
    pos: usize,
    /// The matched prefix's first source, first destination, first size.
    src: Option<PhysAddr>,
    dst: Option<PhysAddr>,
    size: Option<u64>,
}

impl Repeated {
    pub(super) fn new(kind: ProtocolKind) -> Self {
        let row = kind.sequence().unwrap_or_default();
        Repeated { kind, row, pos: 0, src: None, dst: None, size: None }
    }

    /// The 3-instruction variant (insecure; kept as the Figure 5
    /// baseline).
    pub fn three() -> Self {
        Self::new(ProtocolKind::Repeated3)
    }

    /// The 4-instruction variant (insecure; kept as the Figure 6
    /// baseline).
    pub fn four() -> Self {
        Self::new(ProtocolKind::Repeated4)
    }

    /// The 5-instruction variant (the paper's secure scheme, Figure 7).
    pub fn five() -> Self {
        Self::new(ProtocolKind::Repeated5)
    }

    /// The variant this machine runs.
    pub fn kind(&self) -> ProtocolKind {
        self.kind
    }

    /// Current sequence position (test inspection).
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Takes `access` as the row's next one if it repeats its role's first
    /// address and a store repeats the first store's payload. A mismatch
    /// changes nothing on a fresh machine; otherwise the caller resets.
    fn matches(&mut self, access: ShadowAccess, op: Op, pa: PhysAddr, data: u64) -> bool {
        let first = if access.role == Role::Src { &mut self.src } else { &mut self.dst };
        let ok = access.op == op
            && *first.get_or_insert(pa) == pa
            && (op == Op::Load || *self.size.get_or_insert(data) == data);
        self.pos += usize::from(ok);
        ok
    }

    fn on_access(
        &mut self,
        core: &mut EngineCore,
        op: Op,
        pa: PhysAddr,
        data: u64,
        now: SimTime,
        mem: &mut MemPort,
    ) -> u64 {
        let next = self.row.get(self.pos).copied();
        if next.is_some_and(|next| self.matches(next, op, pa, data)) {
            if self.pos < self.row.len() {
                return DMA_PENDING;
            }
            let transfer = (self.src, self.dst, self.size);
            *self = Self::new(self.kind);
            let (Some(src), Some(dst), Some(size)) = transfer else { return DMA_FAILURE };
            return started(core.start_user_dma(src, dst, size, Initiator::Anonymous, now, mem));
        }
        // Out of order: reset; the offending access may start a new
        // sequence.
        core.note_sequence_reset();
        *self = Self::new(self.kind);
        match self.row.first() {
            Some(&first) if self.matches(first, op, pa, data) => DMA_PENDING,
            _ => DMA_FAILURE,
        }
    }

    /// A store hit the shadow window. The scheme has one machine for
    /// every process, so the shadow address's context id is ignored.
    pub fn shadow_store(
        &mut self,
        core: &mut EngineCore,
        pa: PhysAddr,
        _ctx: u32,
        data: u64,
        now: SimTime,
        mem: &mut MemPort,
    ) {
        self.on_access(core, Op::Store, pa, data, now, mem);
    }

    /// A load hit the shadow window; returns [`DMA_PENDING`] mid-row,
    /// the start status at the row's end, [`DMA_FAILURE`] on a reset.
    pub fn shadow_load(
        &mut self,
        core: &mut EngineCore,
        pa: PhysAddr,
        _ctx: u32,
        now: SimTime,
        mem: &mut MemPort,
    ) -> u64 {
        self.on_access(core, Op::Load, pa, 0, now, mem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EngineConfig, DMA_STARTED};
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
