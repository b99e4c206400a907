//! The DMA data mover: validates and performs transfers.

use crate::{EngineStats, Initiator, LinkModel, RejectReason};
use udma_bus::{MemPort, SimTime};
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

/// The mover's state: the link that times local transfers, the record
/// of every transfer performed and the outbox of remote sends. The
/// engine's back-end borrows it, with the memory port, to move bytes.
///
/// Data is copied eagerly (the simulation needs memory to be consistent
/// immediately), frame to frame through the port with nothing staged;
/// only *timing* is spread over the wire. The paper's own
/// evaluation never overlaps transfers with initiations ("no DMA data
/// transfer was actually performed. Only the DMA arguments were passed",
/// §3.4 footnote), so eager copy changes nothing observable.
#[derive(Clone, Debug)]
pub struct DmaMover {
    link: LinkModel,
    records: Vec<TransferRecord>,
    outbox: Vec<RemoteSend>,
}

impl DmaMover {
    /// Creates a mover over the machine's link.
    pub fn new(link: LinkModel) -> Self {
        DmaMover { link, records: Vec::new(), outbox: Vec::new() }
    }

    /// The link model in force.
    pub fn link(&self) -> LinkModel {
        self.link
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

    /// Lends the mover, with the engine counters and `mem`, as the
    /// back-end of one engine operation.
    pub(crate) fn lend<'a>(
        &'a mut self,
        stats: &'a mut EngineStats,
        mem: &'a mut MemPort,
    ) -> Backend<'a> {
        Backend { mover: self, stats, mem }
    }
}

/// The back-end every initiation path shares, lent to one engine
/// operation: the mover's state, the engine counters each launch books,
/// and the memory port the bytes move through. The port's engine side
/// decides whether a read or write snoops the CPU cache.
pub(crate) struct Backend<'a> {
    pub(crate) mover: &'a mut DmaMover,
    pub(crate) stats: &'a mut EngineStats,
    pub(crate) mem: &'a mut MemPort,
}

impl Backend<'_> {
    /// Counts a refused initiation and hands the reason back.
    pub(crate) fn reject(&mut self, reason: RejectReason) -> RejectReason {
        self.stats.reject(reason)
    }

    /// Books a launch attempt: a start on success, a counted reject
    /// otherwise.
    fn book<T>(&mut self, launched: Result<T, RejectReason>) -> Result<T, RejectReason> {
        launched.map_err(|reason| self.reject(reason)).inspect(|_| self.stats.started += 1)
    }

    /// Validates, performs and books a local transfer. Returns the new
    /// record's index and the time its last byte arrives, snoop time
    /// included. Only paths that checked the whole range pass
    /// `multipage_ok` (the kernel's `check_size`, Figure 1; a coalesced
    /// VA chunk): a shadow address proves access to one page only.
    ///
    /// # Errors
    ///
    /// The counted [`RejectReason`] explaining why nothing moved.
    pub(crate) fn launch(
        &mut self,
        src: PhysAddr,
        dst: PhysAddr,
        size: u64,
        initiator: Initiator,
        multipage_ok: bool,
        now: SimTime,
    ) -> Result<(usize, SimTime), RejectReason> {
        let limit = self.mem.ram_mut().size();
        let copied = if size == 0 {
            Err(RejectReason::ZeroSize)
        } else if !multipage_ok
            && (crosses_page(src.as_u64(), size) || crosses_page(dst.as_u64(), size))
        {
            Err(RejectReason::PageCross)
        } else if !fits(src, size, limit) || !fits(dst, size, limit) {
            Err(RejectReason::BadRange)
        } else {
            self.mem.dma_copy(src, dst, size).map_err(|_| RejectReason::BadRange)
        };
        let moved = copied.map(|snoop| {
            let finished = now + self.mover.link.transfer_time(size) + snoop;
            let records = &mut self.mover.records;
            records.push(TransferRecord { src, dst, size, started: now, finished, initiator });
            (records.len() - 1, finished)
        });
        self.book(moved)
    }

    /// Starts and books a send of `size` bytes at `src` to `(asid, va)`
    /// on cluster node `node` (SHRIMP-1's mapped-out pages on another
    /// workstation, §2.4): reads the source now and queues the bytes.
    /// One page on each side, as for a user-level launch; whether the
    /// destination page exists is the receiver's IOMMU's decision. Every
    /// check runs before the source snoop, so a refused send leaves the
    /// CPU caches as it found them.
    ///
    /// # Errors
    ///
    /// The counted [`RejectReason`] explaining why nothing was sent.
    pub(crate) fn send(
        &mut self,
        src: PhysAddr,
        node: u32,
        asid: Asid,
        va: VirtAddr,
        size: u64,
        now: SimTime,
    ) -> Result<(), RejectReason> {
        let read = if size == 0 {
            Err(RejectReason::ZeroSize)
        } else if crosses_page(src.as_u64(), size) || crosses_page(va.as_u64(), size) {
            Err(RejectReason::PageCross)
        } else if !fits(src, size, self.mem.ram_mut().size()) {
            Err(RejectReason::BadRange)
        } else {
            // The bytes leave the machine, so they are read into a
            // buffer the send owns.
            let mut bytes = vec![0u8; size as usize];
            let read = self.mem.dma_read(src, &mut bytes);
            read.map(|snoop| (bytes, snoop)).map_err(|_| RejectReason::BadRange)
        };
        let sent = read.map(|(bytes, snoop)| {
            self.mover.outbox.push(RemoteSend { node, asid, va, bytes, at: now + snoop });
        });
        self.book(sent)
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
    use udma_bus::{CacheConfig, CoherenceMode, CoherenceTiming, MesiState};
    use udma_mem::PhysMemory;

    /// A mover on a 1 Gb/s zero-latency link, fresh counters, and a
    /// 1 MiB port in `mode`.
    fn parts(mode: CoherenceMode) -> (DmaMover, EngineStats, MemPort) {
        let ram = PhysMemory::new(1 << 20);
        let mem = MemPort::new(ram, CacheConfig::alpha_21064(), mode, CoherenceTiming::default());
        let link = LinkModel::new("test", 1_000_000_000, SimTime::ZERO);
        (DmaMover::new(link), EngineStats::default(), mem)
    }

    /// Lends the parts out as one back-end.
    fn backend(parts: &mut (DmaMover, EngineStats, MemPort)) -> Backend<'_> {
        let (mover, stats, mem) = parts;
        mover.lend(stats, mem)
    }

    fn pa(v: u64) -> PhysAddr {
        PhysAddr::new(v)
    }

    #[test]
    fn transfer_copies_data_and_records() {
        let mut p = parts(CoherenceMode::Flat);
        p.2.ram_mut().write_bytes(pa(0x1000), b"hello dma").unwrap();
        let mut b = backend(&mut p);
        let (index, finished) =
            b.launch(pa(0x1000), pa(0x4000), 9, Initiator::Kernel, true, SimTime::ZERO).unwrap();
        assert_eq!(index, 0);
        assert_eq!(b.mover.records()[0].size, 9);
        assert_eq!(b.mover.records()[0].finished, finished);
        let mut buf = [0u8; 9];
        b.mem.ram_mut().read_bytes(pa(0x4000), &mut buf).unwrap();
        assert_eq!(&buf, b"hello dma");
        assert_eq!(b.mover.records().len(), 1);
        assert_eq!(b.stats.started, 1);
    }

    #[test]
    fn zero_size_rejected() {
        let mut p = parts(CoherenceMode::Flat);
        let mut b = backend(&mut p);
        let err = b.launch(pa(0), pa(0x2000), 0, Initiator::Kernel, true, SimTime::ZERO);
        assert_eq!(err, Err(RejectReason::ZeroSize));
        assert_eq!(b.stats.rejected_for(RejectReason::ZeroSize), 1);
    }

    #[test]
    fn page_cross_rejected_for_user_but_allowed_for_kernel() {
        let mut p = parts(CoherenceMode::Flat);
        let mut b = backend(&mut p);
        let src = pa(PAGE_SIZE - 16);
        let dst = pa(4 * PAGE_SIZE);
        assert_eq!(
            b.launch(src, dst, 64, Initiator::Anonymous, false, SimTime::ZERO),
            Err(RejectReason::PageCross)
        );
        // Destination crossing also rejected.
        assert_eq!(
            b.launch(dst, src, 64, Initiator::Anonymous, false, SimTime::ZERO),
            Err(RejectReason::PageCross)
        );
        assert!(b.launch(src, dst, 64, Initiator::Kernel, true, SimTime::ZERO).is_ok());
    }

    #[test]
    fn out_of_memory_range_rejected() {
        let mut p = parts(CoherenceMode::Flat);
        let mut b = backend(&mut p);
        let err = b.launch(pa((1 << 20) - 4), pa(0), 64, Initiator::Kernel, true, SimTime::ZERO);
        assert_eq!(err, Err(RejectReason::BadRange));
    }

    #[test]
    fn remaining_decreases_linearly() {
        let mut p = parts(CoherenceMode::Flat);
        let mut b = backend(&mut p);
        // 1 Gb/s, no latency: 1000 bytes = 8 µs.
        b.launch(pa(0), pa(0x4000), 1000, Initiator::Kernel, true, SimTime::ZERO).unwrap();
        let rec = b.mover.records()[0];
        assert_eq!(rec.remaining_at(SimTime::ZERO), 1000);
        assert_eq!(rec.remaining_at(SimTime::from_us(4)), 500);
        assert_eq!(rec.remaining_at(SimTime::from_us(8)), 0);
        assert_eq!(rec.remaining_at(SimTime::from_us(20)), 0);
    }

    #[test]
    fn coherent_mover_pulls_dirty_lines_and_charges_snoop_time() {
        let mut p = parts(CoherenceMode::Coherent);
        // CPU dirties the source in its cache only — memory is stale.
        p.2.cpu_write(pa(0x1000), 0xFEED).unwrap();
        assert_eq!(p.2.ram_mut().read_u64(pa(0x1000)).unwrap(), 0);
        let mut b = backend(&mut p);
        let (_, finished) =
            b.launch(pa(0x1000), pa(0x4000), 8, Initiator::Kernel, true, SimTime::ZERO).unwrap();
        // The snoop pulled the Modified line, so the DMA saw fresh data.
        assert_eq!(b.mem.ram_mut().read_u64(pa(0x4000)).unwrap(), 0xFEED);
        let intervention = CoherenceTiming::default().intervention;
        assert_eq!(b.mem.coherence_stats().snoop_time, intervention);
        assert_eq!(finished, b.mover.link().transfer_time(8) + intervention);
        b.mem.check_invariants().unwrap();
    }

    #[test]
    fn refused_remote_launch_does_not_snoop() {
        let mut p = parts(CoherenceMode::Coherent);
        let src = pa(0x1000);
        p.2.cpu_write(src, 0xFEED).unwrap();
        let mut b = backend(&mut p);
        let before = b.mem.coherence_stats();
        let cpu_state = |b: &Backend| {
            let (domain, cpu) = b.mem.coherence().unwrap();
            domain.cache(cpu).state_of(src)
        };
        let send = |b: &mut Backend, src, va, size| {
            b.send(src, 1, 3, VirtAddr::new(va), size, SimTime::ZERO)
        };
        // An empty send, a destination crossing its page, and a source
        // past the end of memory.
        assert_eq!(send(&mut b, src, 0, 0), Err(RejectReason::ZeroSize));
        assert_eq!(send(&mut b, src, PAGE_SIZE - 4, 8), Err(RejectReason::PageCross));
        assert_eq!(send(&mut b, pa(1 << 20), 0, 8), Err(RejectReason::BadRange));
        // Nothing was snooped: the CPU still holds the line Modified.
        assert_eq!(b.mem.coherence_stats(), before);
        assert_eq!(cpu_state(&b), MesiState::Modified);
        assert!(b.mover.take_sends().is_empty());
        // A valid send does intervene, and ships the cached bytes.
        assert!(send(&mut b, src, 0x40, 8).is_ok());
        assert_eq!(cpu_state(&b), MesiState::Shared);
        let sent = b.mover.take_sends();
        assert_eq!(sent.len(), 1);
        assert_eq!((sent[0].node, sent[0].asid, sent[0].va), (1, 3, VirtAddr::new(0x40)));
        assert_eq!(sent[0].bytes, 0xFEEDu64.to_le_bytes());
        assert_eq!(sent[0].at, CoherenceTiming::default().intervention);
        assert!(b.mover.records().is_empty(), "a remote send books no local record");
        assert_eq!((b.stats.started, b.stats.rejected()), (1, 3));
    }
}
