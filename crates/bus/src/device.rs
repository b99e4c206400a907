//! Bus device abstraction and the RAM adapter.

use crate::SimTime;
use std::cell::RefCell;
use std::rc::Rc;
use udma_mem::{MemFault, PhysAddr, PhysMemory};

/// Physical memory shared between the RAM device and any DMA-capable
/// device (the NIC's data mover reads and writes it directly, which is the
/// whole point of DMA).
///
/// The simulation is single-threaded and deterministic, so `Rc<RefCell>`
/// is the right tool; no lock is ever contended.
pub type SharedMemory = Rc<RefCell<PhysMemory>>;

/// Something that responds to bus transactions.
///
/// Devices receive the *full* physical address (not an offset) so that a
/// device owning several windows — the NIC owns both its register window
/// and the entire shadow window — can decode for itself.
pub trait BusDevice {
    /// Handles an uncached read of a 64-bit word.
    ///
    /// `now` is the simulation time at which the transaction reaches the
    /// device; devices with protocol state machines use it for timing
    /// bookkeeping only, never for correctness.
    ///
    /// # Errors
    ///
    /// Devices return [`MemFault::BusError`] for addresses inside their
    /// window that they do not decode.
    fn read(&mut self, paddr: PhysAddr, tag: u32, now: SimTime) -> Result<u64, MemFault>;

    /// Handles an uncached write of a 64-bit word. Returns the
    /// device-side latency the write incurred beyond the bus transfer
    /// itself (e.g. a DMA engine checking a key); usually zero.
    ///
    /// # Errors
    ///
    /// As for [`read`](Self::read).
    fn write(
        &mut self,
        paddr: PhysAddr,
        data: u64,
        tag: u32,
        now: SimTime,
    ) -> Result<SimTime, MemFault>;
}

/// The memory controller: adapts [`PhysMemory`] to the bus.
#[derive(Clone, Debug)]
pub struct RamDevice {
    mem: SharedMemory,
}

impl RamDevice {
    /// Creates a RAM device over shared physical memory.
    pub fn new(mem: SharedMemory) -> Self {
        RamDevice { mem }
    }

    /// The shared memory handle.
    pub fn memory(&self) -> SharedMemory {
        Rc::clone(&self.mem)
    }
}

impl BusDevice for RamDevice {
    fn read(&mut self, paddr: PhysAddr, _tag: u32, _now: SimTime) -> Result<u64, MemFault> {
        self.mem.borrow().read_u64(paddr)
    }

    fn write(
        &mut self,
        paddr: PhysAddr,
        data: u64,
        _tag: u32,
        _now: SimTime,
    ) -> Result<SimTime, MemFault> {
        self.mem.borrow_mut().write_u64(paddr, data)?;
        Ok(SimTime::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shared(bytes: u64) -> SharedMemory {
        Rc::new(RefCell::new(PhysMemory::new(bytes)))
    }

    #[test]
    fn ram_device_round_trip() {
        let mem = shared(1 << 20);
        let mut dev = RamDevice::new(Rc::clone(&mem));
        // RAM acknowledges a write with no device-side latency.
        assert_eq!(dev.write(PhysAddr::new(0x100), 7, 0, SimTime::ZERO), Ok(SimTime::ZERO));
        assert_eq!(dev.read(PhysAddr::new(0x100), 0, SimTime::ZERO).unwrap(), 7);
        // Visible through the shared handle too (what a DMA mover sees).
        assert_eq!(mem.borrow().read_u64(PhysAddr::new(0x100)).unwrap(), 7);
    }

    #[test]
    fn ram_device_propagates_faults() {
        let mut dev = RamDevice::new(shared(1 << 13));
        assert!(dev.read(PhysAddr::new(1 << 20), 0, SimTime::ZERO).is_err());
        assert!(dev.write(PhysAddr::new(0x101), 0, 0, SimTime::ZERO).is_err());
    }
}
