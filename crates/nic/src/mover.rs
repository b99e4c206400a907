//! The DMA data mover: validates and performs transfers.

use crate::{Initiator, LinkModel, RejectReason};
use udma_bus::{SharedCoherence, SharedMemory, SimTime};
use udma_iommu::Asid;
use udma_mem::{PhysAddr, VirtAddr, PAGE_SIZE};

/// Where a SHRIMP-1 mapped-out page sends its bytes: a page of this
/// workstation's memory, or a page of an address space a cluster node
/// granted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Destination {
    /// This workstation's own memory.
    Local(PhysAddr),
    /// A page of address space `asid` on cluster node `node`, named by
    /// virtual address: the receiver's IOMMU decides where, and whether,
    /// the bytes land.
    Remote {
        /// Cluster node index.
        node: u32,
        /// Address space the receiver granted.
        asid: Asid,
        /// Virtual address in that address space.
        va: VirtAddr,
    },
}

/// A remote send the mover started: the source bytes, read at launch,
/// bound for a virtual address on another node. The cluster simulation
/// (`udma::ClusterSim`) carries them through the receiver's IOMMU.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RemoteSend {
    /// Destination cluster node.
    pub node: u32,
    /// Destination address space on that node.
    pub asid: Asid,
    /// Destination virtual address.
    pub va: VirtAddr,
    /// The payload, as the source held it at launch.
    pub bytes: Vec<u8>,
    /// When the bytes leave: the launch time plus any source snoop.
    pub at: SimTime,
}

/// A local transfer the mover performed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TransferRecord {
    /// Source physical address.
    pub src: PhysAddr,
    /// Destination physical address.
    pub dst: PhysAddr,
    /// Bytes transferred.
    pub size: u64,
    /// When the transfer was started.
    pub started: SimTime,
    /// When the last byte arrives (per the link model).
    pub finished: SimTime,
    /// Who initiated it.
    pub initiator: Initiator,
}

impl TransferRecord {
    /// Bytes still in flight at time `now` (linear wire model; 0 once the
    /// transfer has finished). This is what a register-context status
    /// load returns: "the number of bytes that need to be transferred
    /// yet" (§3.1).
    pub fn remaining_at(&self, now: SimTime) -> u64 {
        if now >= self.finished {
            return 0;
        }
        let total = (self.finished - self.started).as_ps().max(1);
        let left = (self.finished - now).as_ps();
        ((self.size as u128 * left as u128).div_ceil(total as u128)) as u64
    }
}

/// Performs local transfers against shared physical memory, records
/// them, and models their completion times over a [`LinkModel`]; queues
/// remote sends for the cluster to deliver.
///
/// Data is copied eagerly (the simulation needs memory to be consistent
/// immediately); only *timing* is spread over the wire. The paper's own
/// evaluation never overlaps transfers with initiations ("no DMA data
/// transfer was actually performed. Only the DMA arguments were passed",
/// §3.4 footnote), so eager copy changes nothing observable.
#[derive(Clone, Debug)]
pub struct DmaMover {
    mem: SharedMemory,
    link: LinkModel,
    records: Vec<TransferRecord>,
    outbox: Vec<RemoteSend>,
    /// When attached, the engine is a *coherent* bus master: every read
    /// snoops Modified lines out of the CPU caches and every write
    /// invalidates them. Unattached (the non-coherent mode), the engine
    /// reads and writes raw memory and software must flush around it.
    coherence: Option<SharedCoherence>,
}

impl DmaMover {
    /// Creates a mover over the machine's memory and link.
    pub fn new(mem: SharedMemory, link: LinkModel) -> Self {
        DmaMover { mem, link, records: Vec::new(), outbox: Vec::new(), coherence: None }
    }

    /// The memory the engine moves bytes in (descriptor rings and
    /// atomics address it too).
    pub(crate) fn mem(&self) -> &SharedMemory {
        &self.mem
    }

    /// Makes the engine a snooping (coherent) bus master: transfers pull
    /// Modified lines via intervention on the read side and invalidate
    /// holders on the write side, with the extra time folded into each
    /// record's completion.
    pub fn attach_coherence(&mut self, coherence: SharedCoherence) {
        self.coherence = Some(coherence);
    }

    /// Whether the engine snoops the coherence bus.
    pub fn is_coherent(&self) -> bool {
        self.coherence.is_some()
    }

    /// The link model in force.
    pub fn link(&self) -> LinkModel {
        self.link
    }

    /// Validates and performs a transfer. Returns the new record's index
    /// and the time its last byte arrives.
    ///
    /// `multipage_ok` is true only for the kernel path, which has checked
    /// the entire range page by page (Figure 1's `check_size`); the
    /// user-level protocols prove access to a single page per shadow
    /// address, so their transfers must not cross page boundaries.
    ///
    /// # Errors
    ///
    /// The [`RejectReason`] explaining why nothing was transferred.
    pub fn start(
        &mut self,
        src: PhysAddr,
        dst: PhysAddr,
        size: u64,
        initiator: Initiator,
        multipage_ok: bool,
        now: SimTime,
    ) -> Result<(usize, SimTime), RejectReason> {
        if size == 0 {
            return Err(RejectReason::ZeroSize);
        }
        if !multipage_ok && (crosses_page(src.as_u64(), size) || crosses_page(dst.as_u64(), size)) {
            return Err(RejectReason::PageCross);
        }
        let limit = self.mem.borrow().size();
        if !fits(src, size, limit) || !fits(dst, size, limit) {
            return Err(RejectReason::BadRange);
        }
        let (buf, read) = self.read_source(src, size)?;
        // A coherent write invalidates the CPU's copies of the
        // destination lines and charges that time on this record.
        let write = match &self.coherence {
            Some(domain) => domain.borrow_mut().dma_write(dst, &buf),
            None => self.mem.borrow_mut().write_bytes(dst, &buf).map(|()| SimTime::ZERO),
        }
        .map_err(|_| RejectReason::BadRange)?;
        let finished = now + self.link.transfer_time(size) + (read + write);
        self.records.push(TransferRecord { src, dst, size, started: now, finished, initiator });
        Ok((self.records.len() - 1, finished))
    }

    /// Starts a send of `size` bytes at `src` to `(asid, va)` on cluster
    /// node `node` (SHRIMP-1's mapped-out pages on another workstation,
    /// §2.4): reads the source now and queues the bytes in the outbox.
    /// The send is bounded to one page on each side, because the shadow
    /// mechanism proved access to one page per address. Whether the
    /// destination page exists is the receiver's IOMMU's decision, not
    /// the sender's.
    ///
    /// Every check runs before the source snoop, so a refused send
    /// leaves the CPU caches exactly as it found them.
    ///
    /// # Errors
    ///
    /// The [`RejectReason`] explaining why nothing was sent.
    pub(crate) fn send(
        &mut self,
        src: PhysAddr,
        node: u32,
        asid: Asid,
        va: VirtAddr,
        size: u64,
        now: SimTime,
    ) -> Result<(), RejectReason> {
        if size == 0 {
            return Err(RejectReason::ZeroSize);
        }
        if crosses_page(src.as_u64(), size) || crosses_page(va.as_u64(), size) {
            return Err(RejectReason::PageCross);
        }
        if !fits(src, size, self.mem.borrow().size()) {
            return Err(RejectReason::BadRange);
        }
        let (bytes, read) = self.read_source(src, size)?;
        self.outbox.push(RemoteSend { node, asid, va, bytes, at: now + read });
        Ok(())
    }

    /// Reads `size` bytes at `src`. A coherent engine snoops Modified
    /// lines out of the CPU caches first; the snoop time is returned
    /// with the bytes.
    fn read_source(&self, src: PhysAddr, size: u64) -> Result<(Vec<u8>, SimTime), RejectReason> {
        let mut buf = vec![0u8; size as usize];
        let read = match &self.coherence {
            Some(domain) => domain.borrow_mut().dma_read(src, &mut buf),
            None => self.mem.borrow().read_bytes(src, &mut buf).map(|()| SimTime::ZERO),
        };
        read.map(|t| (buf, t)).map_err(|_| RejectReason::BadRange)
    }

    /// Takes every queued remote send, in launch order.
    pub(crate) fn take_sends(&mut self) -> Vec<RemoteSend> {
        std::mem::take(&mut self.outbox)
    }

    /// Every local transfer performed so far, in start order.
    pub fn records(&self) -> &[TransferRecord] {
        &self.records
    }

    /// The record at `index`.
    pub fn record(&self, index: usize) -> Option<&TransferRecord> {
        self.records.get(index)
    }

    /// Drops recorded history (long benchmark runs).
    pub fn clear_records(&mut self) {
        self.records.clear();
    }
}

/// Whether `size` bytes from address `a` run past the end of its page.
fn crosses_page(a: u64, size: u64) -> bool {
    size > PAGE_SIZE - a % PAGE_SIZE
}

/// Whether `size` bytes from `a` lie inside `limit` bytes of memory.
fn fits(a: PhysAddr, size: u64, limit: u64) -> bool {
    a.as_u64().checked_add(size).is_some_and(|end| end <= limit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;
    use udma_mem::PhysMemory;

    fn mover() -> DmaMover {
        let mem = Rc::new(RefCell::new(PhysMemory::new(1 << 20)));
        DmaMover::new(mem, LinkModel::new("test", 1_000_000_000, SimTime::ZERO))
    }

    #[test]
    fn transfer_copies_data_and_records() {
        let mut m = mover();
        let mem = m.mem.clone();
        mem.borrow_mut().write_bytes(PhysAddr::new(0x1000), b"hello dma").unwrap();
        let (index, finished) = m
            .start(
                PhysAddr::new(0x1000),
                PhysAddr::new(0x4000),
                9,
                Initiator::Kernel,
                true,
                SimTime::ZERO,
            )
            .unwrap();
        assert_eq!(index, 0);
        assert_eq!(m.records()[0].size, 9);
        assert_eq!(m.records()[0].finished, finished);
        let mut buf = [0u8; 9];
        mem.borrow().read_bytes(PhysAddr::new(0x4000), &mut buf).unwrap();
        assert_eq!(&buf, b"hello dma");
        assert_eq!(m.records().len(), 1);
    }

    #[test]
    fn zero_size_rejected() {
        let mut m = mover();
        let err = m
            .start(
                PhysAddr::new(0),
                PhysAddr::new(0x2000),
                0,
                Initiator::Kernel,
                true,
                SimTime::ZERO,
            )
            .unwrap_err();
        assert_eq!(err, RejectReason::ZeroSize);
    }

    #[test]
    fn page_cross_rejected_for_user_but_allowed_for_kernel() {
        let mut m = mover();
        let src = PhysAddr::new(PAGE_SIZE - 16);
        let dst = PhysAddr::new(4 * PAGE_SIZE);
        assert_eq!(
            m.start(src, dst, 64, Initiator::Anonymous, false, SimTime::ZERO).unwrap_err(),
            RejectReason::PageCross
        );
        // Destination crossing also rejected.
        assert_eq!(
            m.start(dst, src, 64, Initiator::Anonymous, false, SimTime::ZERO).unwrap_err(),
            RejectReason::PageCross
        );
        assert!(m.start(src, dst, 64, Initiator::Kernel, true, SimTime::ZERO).is_ok());
    }

    #[test]
    fn out_of_memory_range_rejected() {
        let mut m = mover();
        let err = m
            .start(
                PhysAddr::new((1 << 20) - 4),
                PhysAddr::new(0),
                64,
                Initiator::Kernel,
                true,
                SimTime::ZERO,
            )
            .unwrap_err();
        assert_eq!(err, RejectReason::BadRange);
    }

    #[test]
    fn remaining_decreases_linearly() {
        let mut m = mover();
        // 1 Gb/s, no latency: 1000 bytes = 8 µs.
        m.start(
            PhysAddr::new(0),
            PhysAddr::new(0x4000),
            1000,
            Initiator::Kernel,
            true,
            SimTime::ZERO,
        )
        .unwrap();
        let rec = m.records()[0];
        assert_eq!(rec.remaining_at(SimTime::ZERO), 1000);
        assert_eq!(rec.remaining_at(SimTime::from_us(4)), 500);
        assert_eq!(rec.remaining_at(SimTime::from_us(8)), 0);
        assert_eq!(rec.remaining_at(SimTime::from_us(20)), 0);
    }

    #[test]
    fn coherent_mover_pulls_dirty_lines_and_charges_snoop_time() {
        use udma_bus::{CacheConfig, CoherenceDomain, CoherenceTiming};
        let mem: SharedMemory = Rc::new(RefCell::new(PhysMemory::new(1 << 20)));
        let domain = CoherenceDomain::new(mem.clone(), CoherenceTiming::default());
        let shared = domain.shared();
        let cpu = shared.borrow_mut().add_agent(CacheConfig::alpha_21064());
        let mut m =
            DmaMover::new(mem.clone(), LinkModel::new("test", 1_000_000_000, SimTime::ZERO));
        m.attach_coherence(shared.clone());
        assert!(m.is_coherent());
        // CPU dirties the source in its cache only — memory is stale.
        shared
            .borrow_mut()
            .agent_write(cpu, PhysAddr::new(0x1000), &0xFEEDu64.to_le_bytes())
            .unwrap();
        assert_eq!(mem.borrow().read_u64(PhysAddr::new(0x1000)).unwrap(), 0);
        let (_, finished) = m
            .start(
                PhysAddr::new(0x1000),
                PhysAddr::new(0x4000),
                8,
                Initiator::Kernel,
                true,
                SimTime::ZERO,
            )
            .unwrap();
        // The snoop pulled the Modified line, so the DMA saw fresh data.
        assert_eq!(mem.borrow().read_u64(PhysAddr::new(0x4000)).unwrap(), 0xFEED);
        let intervention = shared.borrow().timing().intervention;
        assert_eq!(shared.borrow().stats().snoop_time, intervention);
        assert_eq!(finished, m.link().transfer_time(8) + intervention);
        shared.borrow().check_invariants().unwrap();
    }

    #[test]
    fn refused_remote_launch_does_not_snoop() {
        use udma_bus::{CacheConfig, CoherenceDomain, CoherenceTiming, MesiState};
        let mem: SharedMemory = Rc::new(RefCell::new(PhysMemory::new(1 << 20)));
        let shared = CoherenceDomain::new(mem.clone(), CoherenceTiming::default()).shared();
        let cpu = shared.borrow_mut().add_agent(CacheConfig::alpha_21064());
        let mut m = DmaMover::new(mem, LinkModel::new("test", 1_000_000_000, SimTime::ZERO));
        m.attach_coherence(shared.clone());
        let src = PhysAddr::new(0x1000);
        shared.borrow_mut().agent_write(cpu, src, &0xFEEDu64.to_le_bytes()).unwrap();
        let before = shared.borrow().stats();
        let send = |m: &mut DmaMover, src, va, size| {
            m.send(src, 1, 3, VirtAddr::new(va), size, SimTime::ZERO)
        };
        // An empty send, a destination crossing its page, and a source
        // past the end of memory.
        assert_eq!(send(&mut m, src, 0, 0), Err(RejectReason::ZeroSize));
        assert_eq!(send(&mut m, src, PAGE_SIZE - 4, 8), Err(RejectReason::PageCross));
        assert_eq!(send(&mut m, PhysAddr::new(1 << 20), 0, 8), Err(RejectReason::BadRange));
        // Nothing was snooped: the CPU still holds the line Modified.
        assert_eq!(shared.borrow().stats(), before);
        assert_eq!(shared.borrow().cache(cpu).state_of(src), MesiState::Modified);
        assert!(m.take_sends().is_empty());
        // A valid send does intervene, and ships the cached bytes.
        assert!(send(&mut m, src, 0x40, 8).is_ok());
        assert_eq!(shared.borrow().cache(cpu).state_of(src), MesiState::Shared);
        let sent = m.take_sends();
        assert_eq!(sent.len(), 1);
        assert_eq!((sent[0].node, sent[0].asid, sent[0].va), (1, 3, VirtAddr::new(0x40)));
        assert_eq!(sent[0].bytes, 0xFEEDu64.to_le_bytes());
        assert_eq!(sent[0].at, shared.borrow().timing().intervention);
        assert!(m.records().is_empty(), "a remote send books no local record");
    }

    #[test]
    fn clear_records() {
        let mut m = mover();
        m.start(PhysAddr::new(0), PhysAddr::new(0x4000), 8, Initiator::Kernel, true, SimTime::ZERO)
            .unwrap();
        m.clear_records();
        assert!(m.records().is_empty());
    }
}
