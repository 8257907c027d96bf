//! Guest memory granularity.
//!
//! Live pre-copy migration revolves around *dirty pages*: pages written
//! since the last transfer round must be re-sent. The paper's dirtying
//! ratio `DR(v,t) = DIRTYPAGES(v,t) / MEM(v)` (Eq. 1) counts them in
//! pages of this size. A VM's image size comes from its spec
//! ([`VmSpec::ram_bytes`](crate::VmSpec::ram_bytes)); its dirty set is the
//! migration engine's analytic one, which steps toward the migrant's
//! working set (`wavm3-migration`, `Mechanism::saturate_dirty`).

/// Memory page size (4 KiB, the x86 baseline used by Xen paravirtual guests).
pub const PAGE_SIZE_BYTES: u64 = 4096;
