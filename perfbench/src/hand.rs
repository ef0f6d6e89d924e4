//! L0 of the ladder: hand-written probe loops over the library's table
//! layout, with no executor, no `LookupOp`, no memory unit and no clock.
//!
//! `baseline` is the plain chain walk; `amac` is the paper's Listing 1 —
//! a circular buffer of lookup states, each advanced one node per visit
//! with a prefetch for the next. Both stop at a lookup's first match, as
//! `ProbeConfig::default()` does, and return `(matches, checksum)` with the
//! same wrapping payload checksum as `ops::join::probe`.

use amac_hashtable::{Bucket, HashTable};
use amac_mem::{prefetch_read, NULL_INDEX};
use amac_workload::Tuple;

/// Scan one node for `key`; `Some(payload)` on a match.
#[inline(always)]
fn scan(node: *const Bucket, key: u64) -> (Option<u64>, u32) {
    // SAFETY: `node` is a header or arena node of a table in a read-only
    // phase (no mutation runs while a probe loop runs).
    let d = unsafe { (*node).data() };
    for t in &d.tuples[..d.count()] {
        if t.key == key {
            return (Some(t.payload), d.next);
        }
    }
    (None, d.next)
}

/// Sequential chain walk, one lookup at a time.
pub fn baseline(ht: &HashTable, probes: &[Tuple]) -> (u64, u64) {
    let (mut matches, mut checksum) = (0u64, 0u64);
    for p in probes {
        let mut node = ht.bucket_addr(p.key);
        loop {
            let (hit, next) = scan(node, p.key);
            if let Some(payload) = hit {
                matches += 1;
                checksum = checksum.wrapping_add(payload);
                break;
            }
            if next == NULL_INDEX {
                break;
            }
            node = ht.node_ptr(next);
        }
    }
    (matches, checksum)
}

/// One entry of the Listing-1 circular buffer.
#[derive(Clone, Copy)]
struct Slot {
    key: u64,
    node: *const Bucket,
    live: bool,
}

/// Listing 1: `m` lookups in flight, each visit dereferences the line
/// prefetched on the previous visit and prefetches the next one.
pub fn amac(ht: &HashTable, probes: &[Tuple], m: usize) -> (u64, u64) {
    let (mut matches, mut checksum) = (0u64, 0u64);
    let mut buf = vec![Slot { key: 0, node: core::ptr::null(), live: false }; m.max(1)];
    let mut next_input = 0usize;
    let mut done = 0usize;
    let mut k = 0usize;
    while done < probes.len() {
        let s = &mut buf[k];
        if s.live {
            let (hit, next) = scan(s.node, s.key);
            if let Some(payload) = hit {
                matches += 1;
                checksum = checksum.wrapping_add(payload);
                s.live = false;
            } else if next == NULL_INDEX {
                s.live = false;
            } else {
                s.node = ht.node_ptr(next);
                prefetch_read(s.node);
            }
            if !s.live {
                done += 1;
            }
        }
        if !s.live && next_input < probes.len() {
            // Stage 0: start the next lookup in the freed slot.
            s.key = probes[next_input].key;
            s.node = ht.bucket_addr(s.key);
            s.live = true;
            prefetch_read(s.node);
            next_input += 1;
        }
        k += 1;
        if k == buf.len() {
            k = 0;
        }
    }
    (matches, checksum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use amac_ops::join::{probe, ProbeConfig};
    use amac_ops::Technique;
    use amac_workload::Relation;

    #[test]
    fn hand_loops_agree_with_the_library_probe() {
        let r = Relation::dense_unique(1 << 12, 3);
        // Over-occupied table so chains have several nodes.
        let ht = HashTable::with_buckets(1 << 8);
        {
            let mut h = ht.build_handle();
            for t in &r.tuples {
                h.insert(t.key, t.payload);
            }
        }
        let s = Relation::fk_uniform(&r, 5000, 4);
        let lib = probe(&ht, &s, Technique::Amac, &ProbeConfig::default());
        for got in [baseline(&ht, &s.tuples), amac(&ht, &s.tuples, 10), amac(&ht, &s.tuples, 1)] {
            assert_eq!(got, (lib.matches, lib.checksum));
        }
    }
}
