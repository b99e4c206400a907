//! The DMA data mover: validates and performs transfers.

use crate::{Destination, Initiator, LinkModel, RejectReason, SharedCluster};
use udma_bus::{SharedCoherence, SharedMemory, SimTime};
use udma_mem::{PhysAddr, PAGE_SIZE};

/// A transfer the mover performed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TransferRecord {
    /// Source physical address.
    pub src: PhysAddr,
    /// Destination physical address (on the remote node when
    /// `remote_node` is set).
    pub dst: PhysAddr,
    /// Cluster node the bytes were deposited on, if not local.
    pub remote_node: Option<u32>,
    /// Bytes transferred.
    pub size: u64,
    /// When the transfer was started.
    pub started: SimTime,
    /// When the last byte arrives (per the link model).
    pub finished: SimTime,
    /// Who initiated it.
    pub initiator: Initiator,
}

/// Destination of a cross-link deposit: a physical address on a
/// specific cluster node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RemoteDst {
    /// Receiving node's index within the cluster.
    pub node: u32,
    /// Physical address in that node's memory.
    pub addr: PhysAddr,
}

impl TransferRecord {
    /// Where the transfer landed.
    pub fn destination(&self) -> Destination {
        match self.remote_node {
            Some(node) => Destination::Remote { node, addr: self.dst },
            None => Destination::Local(self.dst),
        }
    }

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

/// Performs transfers against shared physical memory, records them, and
/// models their completion times over a [`LinkModel`].
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
    cluster: Option<SharedCluster>,
    records: Vec<TransferRecord>,
    /// When attached, the engine is a *coherent* bus master: every read
    /// snoops Modified lines out of the CPU caches and every write
    /// invalidates them. Unattached (the non-coherent mode), the engine
    /// reads and writes raw memory and software must flush around it.
    coherence: Option<SharedCoherence>,
    /// Total snoop time the engine's transfers have paid.
    snoop_time: SimTime,
}

impl DmaMover {
    /// Creates a mover over the machine's memory and link.
    pub fn new(mem: SharedMemory, link: LinkModel) -> Self {
        DmaMover {
            mem,
            link,
            cluster: None,
            records: Vec::new(),
            coherence: None,
            snoop_time: SimTime::ZERO,
        }
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

    /// Total snoop time the engine's transfers have paid (zero when not
    /// coherent).
    pub fn snoop_time(&self) -> SimTime {
        self.snoop_time
    }

    /// Attaches the cluster of remote nodes reachable over the link.
    pub fn attach_cluster(&mut self, cluster: SharedCluster) {
        self.cluster = Some(cluster);
    }

    /// The attached cluster, if any.
    pub fn cluster(&self) -> Option<SharedCluster> {
        self.cluster.clone()
    }

    /// The link model in force.
    pub fn link(&self) -> LinkModel {
        self.link
    }

    /// Validates and performs a transfer.
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
    ) -> Result<&TransferRecord, RejectReason> {
        if size == 0 {
            return Err(RejectReason::ZeroSize);
        }
        if !multipage_ok {
            let crosses = |a: PhysAddr| (a.as_u64() % PAGE_SIZE) + size > PAGE_SIZE;
            if crosses(src) || crosses(dst) {
                return Err(RejectReason::PageCross);
            }
        }
        {
            let limit = self.mem.borrow().size();
            let ok = |a: PhysAddr| a.as_u64().checked_add(size).is_some_and(|e| e <= limit);
            if !ok(src) || !ok(dst) {
                return Err(RejectReason::BadRange);
            }
        }
        let snoop = match &self.coherence {
            // Coherent engine: the read side intervenes on Modified
            // lines, the write side invalidates holders; both charge
            // extra wire time on this record.
            Some(domain) => {
                let mut buf = vec![0u8; size as usize];
                let mut d = domain.borrow_mut();
                let r = d.dma_read(src, &mut buf).map_err(|_| RejectReason::BadRange)?;
                let w = d.dma_write(dst, &buf).map_err(|_| RejectReason::BadRange)?;
                r + w
            }
            None => {
                self.mem.borrow_mut().copy(src, dst, size).map_err(|_| RejectReason::BadRange)?;
                SimTime::ZERO
            }
        };
        self.snoop_time += snoop;
        let rec = TransferRecord {
            src,
            dst,
            remote_node: None,
            size,
            started: now,
            finished: now + self.link.transfer_time(size) + snoop,
            initiator,
        };
        self.records.push(rec);
        Ok(self.records.last().expect("just pushed"))
    }

    /// Validates and performs a transfer whose destination is a page on a
    /// remote cluster node (SHRIMP-1's mapped-out pages, §2.4) over the
    /// ideal link. The deposit is bounded to one page on each side: the
    /// shadow mechanism proved access to one page per address.
    ///
    /// # Errors
    ///
    /// The [`RejectReason`] explaining why nothing was transferred
    /// (`BadRange` also covers a missing cluster or node).
    pub fn start_remote(
        &mut self,
        src: PhysAddr,
        dst: RemoteDst,
        size: u64,
        initiator: Initiator,
        now: SimTime,
    ) -> Result<&TransferRecord, RejectReason> {
        let RemoteDst { node, addr } = dst;
        if size == 0 {
            return Err(RejectReason::ZeroSize);
        }
        let crosses = |a: PhysAddr| size > PAGE_SIZE - a.as_u64() % PAGE_SIZE;
        if crosses(src) || crosses(addr) {
            return Err(RejectReason::PageCross);
        }
        let mut buf = vec![0u8; size as usize];
        // Source-side snoop: a remote post must not ship bytes the CPU
        // still holds Modified. (The destination node's coherence is the
        // receiver's problem.)
        let src_snoop = match &self.coherence {
            Some(domain) => {
                domain.borrow_mut().dma_read(src, &mut buf).map_err(|_| RejectReason::BadRange)?
            }
            None => {
                self.mem.borrow().read_bytes(src, &mut buf).map_err(|_| RejectReason::BadRange)?;
                SimTime::ZERO
            }
        };
        self.snoop_time += src_snoop;
        let cluster = self.cluster.as_ref().ok_or(RejectReason::BadRange)?;
        cluster.borrow_mut().deposit(node, addr, &buf).map_err(|_| RejectReason::BadRange)?;
        let rec = TransferRecord {
            src,
            dst: addr,
            remote_node: Some(node),
            size,
            started: now,
            finished: now + self.link.transfer_time(size) + src_snoop,
            initiator,
        };
        self.records.push(rec);
        Ok(self.records.last().expect("just pushed"))
    }

    /// Every transfer performed so far, in start order.
    pub fn records(&self) -> &[TransferRecord] {
        &self.records
    }

    /// Index of the most recent transfer, if any.
    pub fn last_index(&self) -> Option<usize> {
        self.records.len().checked_sub(1)
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
        let rec = m
            .start(
                PhysAddr::new(0x1000),
                PhysAddr::new(0x4000),
                9,
                Initiator::Kernel,
                true,
                SimTime::ZERO,
            )
            .unwrap();
        assert_eq!(rec.size, 9);
        let mut buf = [0u8; 9];
        mem.borrow().read_bytes(PhysAddr::new(0x4000), &mut buf).unwrap();
        assert_eq!(&buf, b"hello dma");
        assert_eq!(m.records().len(), 1);
        assert_eq!(m.last_index(), Some(0));
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
        let rec = *m
            .start(
                PhysAddr::new(0),
                PhysAddr::new(0x4000),
                1000,
                Initiator::Kernel,
                true,
                SimTime::ZERO,
            )
            .unwrap();
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
        let rec = *m
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
        assert_eq!(m.snoop_time(), intervention);
        assert_eq!(rec.finished, m.link().transfer_time(8) + intervention);
        shared.borrow().check_invariants().unwrap();
    }

    #[test]
    fn clear_records() {
        let mut m = mover();
        m.start(PhysAddr::new(0), PhysAddr::new(0x4000), 8, Initiator::Kernel, true, SimTime::ZERO)
            .unwrap();
        m.clear_records();
        assert!(m.records().is_empty());
        assert_eq!(m.last_index(), None);
    }
}
