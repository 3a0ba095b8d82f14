//! A device arena is zeroed lazily, in every build profile: creating one
//! backs none of it, reading it backs none of it, and a write backs at
//! most the huge page it lands in. Resident memory is process-wide, so
//! this file holds one test and nothing else allocates meanwhile.
#![cfg(target_os = "linux")]

use eirene_sim::GlobalMemory;

const MIB: usize = 1 << 20;

/// Resident set size of this process, from `/proc/self/statm` (whose
/// second field counts 4 KiB base pages on x86-64 and on common aarch64
/// kernels).
fn resident_bytes() -> usize {
    let statm = std::fs::read_to_string("/proc/self/statm").expect("read /proc/self/statm");
    let pages: usize = statm
        .split_whitespace()
        .nth(1)
        .and_then(|field| field.parse().ok())
        .expect("statm's second field is the resident page count");
    pages * 4096
}

#[test]
fn a_fresh_arena_is_backed_only_where_it_is_written() {
    const WORDS: usize = 256 * MIB / 8;
    let before = resident_bytes();
    let mem = GlobalMemory::new(WORDS);
    let created = resident_bytes();
    assert!(
        created < before + 16 * MIB,
        "creating a 256 MiB arena made {} MiB resident: it was filled eagerly",
        (created - before) / MIB
    );
    for addr in [0, WORDS / 2, WORDS - 1] {
        assert_eq!(mem.read(addr as u64), 0, "word {addr} of a fresh arena");
    }
    let read = resident_bytes();
    mem.write(WORDS as u64 / 2, 1);
    let written = resident_bytes();
    assert!(
        written <= read + 2 * MIB + MIB / 2,
        "one write made {} KiB resident: more than one huge page",
        (written - read) >> 10
    );
    assert_eq!(mem.read(WORDS as u64 / 2), 1);
}
