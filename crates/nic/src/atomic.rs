//! The atomic-operation unit (§3.5).
//!
//! NIC-resident atomic operations let processes on a NOW protect shared
//! data without a round trip through the kernel. Each operation takes one
//! physical address, up to two data operands, and returns the old value.

use udma_bus::MemPort;
use udma_mem::{MemFault, PhysAddr};

/// An atomic read-modify-write operation on a 64-bit word.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AtomicOp {
    /// `*addr += operand1`; returns the old value.
    Add,
    /// `*addr = operand1`; returns the old value (`fetch_and_store`).
    FetchStore,
    /// `if *addr == operand1 { *addr = operand2 }`; returns the old value
    /// (`compare_and_swap`).
    CompareSwap,
}

impl AtomicOp {
    /// The command code written to the engine's atomic command register.
    pub fn code(self) -> u64 {
        match self {
            AtomicOp::Add => 1,
            AtomicOp::FetchStore => 2,
            AtomicOp::CompareSwap => 3,
        }
    }

    /// Decodes a command code.
    pub fn from_code(code: u64) -> Option<Self> {
        match code {
            1 => Some(AtomicOp::Add),
            2 => Some(AtomicOp::FetchStore),
            3 => Some(AtomicOp::CompareSwap),
            _ => None,
        }
    }

    /// Applies the operation to memory through the engine side of the
    /// port, returning the old value. A coherent engine snoops both bus
    /// cycles, so a CPU's Modified copy of the word is read, not lost.
    ///
    /// The engine executes this in a single step of the simulation, which
    /// models the hardware's indivisible bus cycle pair.
    ///
    /// # Errors
    ///
    /// Propagates the memory fault if the address is bad.
    pub fn apply(
        self,
        mem: &mut MemPort,
        addr: PhysAddr,
        operand1: u64,
        operand2: u64,
    ) -> Result<u64, MemFault> {
        let old = mem.dma_read_u64(addr)?;
        let new = match self {
            AtomicOp::Add => old.wrapping_add(operand1),
            AtomicOp::FetchStore => operand1,
            AtomicOp::CompareSwap => {
                if old == operand1 {
                    operand2
                } else {
                    old
                }
            }
        };
        mem.dma_write_u64(addr, new)?;
        Ok(old)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udma_mem::PhysMemory;

    fn mem_with(addr: u64, value: u64) -> MemPort {
        let mut mem = MemPort::flat(PhysMemory::new(1 << 16));
        mem.ram_mut().write_u64(PhysAddr::new(addr), value).unwrap();
        mem
    }

    #[test]
    fn add_returns_old_and_updates() {
        let mut mem = mem_with(0x100, 10);
        let old = AtomicOp::Add.apply(&mut mem, PhysAddr::new(0x100), 5, 0).unwrap();
        assert_eq!(old, 10);
        assert_eq!(mem.ram_mut().read_u64(PhysAddr::new(0x100)).unwrap(), 15);
    }

    #[test]
    fn add_wraps() {
        let mut mem = mem_with(0x100, u64::MAX);
        AtomicOp::Add.apply(&mut mem, PhysAddr::new(0x100), 1, 0).unwrap();
        assert_eq!(mem.ram_mut().read_u64(PhysAddr::new(0x100)).unwrap(), 0);
    }

    #[test]
    fn fetch_store_swaps() {
        let mut mem = mem_with(0x100, 7);
        let old = AtomicOp::FetchStore.apply(&mut mem, PhysAddr::new(0x100), 99, 0).unwrap();
        assert_eq!(old, 7);
        assert_eq!(mem.ram_mut().read_u64(PhysAddr::new(0x100)).unwrap(), 99);
    }

    #[test]
    fn compare_swap_success_and_failure() {
        let mut mem = mem_with(0x100, 5);
        let old = AtomicOp::CompareSwap.apply(&mut mem, PhysAddr::new(0x100), 5, 50).unwrap();
        assert_eq!(old, 5);
        assert_eq!(mem.ram_mut().read_u64(PhysAddr::new(0x100)).unwrap(), 50);

        let old = AtomicOp::CompareSwap.apply(&mut mem, PhysAddr::new(0x100), 5, 99).unwrap();
        assert_eq!(old, 50); // compare failed, unchanged
        assert_eq!(mem.ram_mut().read_u64(PhysAddr::new(0x100)).unwrap(), 50);
    }

    #[test]
    fn code_round_trip() {
        for op in [AtomicOp::Add, AtomicOp::FetchStore, AtomicOp::CompareSwap] {
            assert_eq!(AtomicOp::from_code(op.code()), Some(op));
        }
        assert_eq!(AtomicOp::from_code(0), None);
        assert_eq!(AtomicOp::from_code(9), None);
    }

    #[test]
    fn bad_address_faults() {
        let mut mem = mem_with(0x100, 5);
        assert!(AtomicOp::Add.apply(&mut mem, PhysAddr::new(1 << 40), 1, 0).is_err());
        assert!(AtomicOp::Add.apply(&mut mem, PhysAddr::new(0x101), 1, 0).is_err());
    }
}
