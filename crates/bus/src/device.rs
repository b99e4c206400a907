//! Bus device abstraction.

use crate::{MemPort, SimTime};
use udma_mem::{MemFault, PhysAddr};

/// Something that responds to bus transactions.
///
/// Devices receive the *full* physical address (not an offset) so that a
/// device owning several windows — the NIC owns both its register window
/// and the entire shadow window — can decode for itself. A DMA-capable
/// device reaches memory only through the engine side of the
/// [`MemPort`] the bus lends it with each transaction.
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
    fn read(
        &mut self,
        paddr: PhysAddr,
        tag: u32,
        now: SimTime,
        mem: &mut MemPort,
    ) -> Result<u64, MemFault>;

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
        mem: &mut MemPort,
    ) -> Result<SimTime, MemFault>;
}

/// The empty NIC slot: every access to the device windows of a bus with
/// no NIC fitted is a bus error.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoNic;

impl BusDevice for NoNic {
    fn read(&mut self, pa: PhysAddr, _: u32, _: SimTime, _: &mut MemPort) -> Result<u64, MemFault> {
        Err(MemFault::BusError { pa })
    }

    fn write(
        &mut self,
        pa: PhysAddr,
        _: u64,
        _: u32,
        _: SimTime,
        _: &mut MemPort,
    ) -> Result<SimTime, MemFault> {
        Err(MemFault::BusError { pa })
    }
}
