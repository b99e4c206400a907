//! Status codes and rejection reasons.

use std::fmt;

/// Returned by a status load when a DMA initiation failed or an access
/// broke a protocol sequence. Matches the paper's `-1 means failure`.
pub const DMA_FAILURE: u64 = u64::MAX;

/// Returned by a final status load when the DMA was started and the
/// transfer is already complete ("0 means completed DMA operation").
pub const DMA_STARTED: u64 = 0;

/// Returned by intermediate status loads of a multi-access sequence that
/// is progressing correctly.
pub const DMA_PENDING: u64 = 1;

/// Who asked the engine to start a transfer (bookkeeping for tests and
/// statistics; carries no protocol authority).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Initiator {
    /// The kernel driver via the privileged register window.
    Kernel,
    /// A user-level protocol through register context `ctx`.
    Context(u32),
    /// A user-level protocol without register contexts (SHRIMP-2, FLASH,
    /// repeated passing).
    Anonymous,
    /// A chunk of a virtual-address DMA, translated by the engine's
    /// IOMMU on behalf of address space `asid`.
    VirtDma {
        /// The posting address space (= granted register context).
        asid: u32,
    },
}

impl fmt::Display for Initiator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Initiator::Kernel => write!(f, "kernel"),
            Initiator::Context(c) => write!(f, "ctx{c}"),
            Initiator::Anonymous => write!(f, "anon"),
            Initiator::VirtDma { asid } => write!(f, "va{asid}"),
        }
    }
}

/// Why the engine refused to start a transfer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RejectReason {
    /// Zero-length transfer.
    ZeroSize,
    /// Source or destination range leaves installed RAM.
    BadRange,
    /// A user-level transfer would cross a page boundary. The shadow
    /// mechanism proves access to *one* page per address; only the kernel
    /// path, which checks the whole range (Figure 1's `check_size`), may
    /// cross pages.
    PageCross,
    /// Key did not match the context's programmed key (§3.1).
    KeyMismatch,
    /// A shadow access arrived out of protocol order (§3.3: "if it sees
    /// anything out of this order, the DMA engine resets itself").
    BadSequence,
    /// A status load arrived with arguments missing.
    MissingArgs,
    /// Source and destination context ids disagree (§3.2 pairwise check).
    CtxMismatch,
    /// The context's descriptor ring is full (or no ring is registered):
    /// the post must wait for the engine to dequeue, or fall back to a
    /// register-path initiation.
    RingFull,
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RejectReason::ZeroSize => "zero-size transfer",
            RejectReason::BadRange => "range outside installed memory",
            RejectReason::PageCross => "user-level transfer crosses a page boundary",
            RejectReason::KeyMismatch => "key mismatch",
            RejectReason::BadSequence => "shadow access out of protocol order",
            RejectReason::MissingArgs => "initiation with missing arguments",
            RejectReason::CtxMismatch => "source/destination context mismatch",
            RejectReason::RingFull => "descriptor ring full or unregistered",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_constants_are_distinct() {
        let all = [DMA_FAILURE, DMA_STARTED, DMA_PENDING];
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn failure_is_minus_one() {
        assert_eq!(DMA_FAILURE as i64, -1);
    }

    #[test]
    fn displays() {
        assert_eq!(Initiator::Kernel.to_string(), "kernel");
        assert_eq!(Initiator::Context(2).to_string(), "ctx2");
        assert_eq!(Initiator::Anonymous.to_string(), "anon");
        assert_eq!(Initiator::VirtDma { asid: 3 }.to_string(), "va3");
        assert!(RejectReason::PageCross.to_string().contains("page boundary"));
        assert!(RejectReason::RingFull.to_string().contains("ring full"));
    }
}
