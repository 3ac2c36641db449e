//! The page-table [`VirtualMemory`] against a trivially correct model, and
//! its accounting under threads.

use alaska_heap::vmem::{VirtAddr, VirtualMemory, VmStats};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Barrier;

/// Small pages (a granule is 32 KiB), so modest ranges cross pages and
/// granules constantly.
const PAGE: u64 = 64;

/// The reference: resident pages by page number, live mappings, and the
/// counters the real thing must reproduce bit for bit.
#[derive(Default)]
struct Model {
    pages: HashMap<u64, Vec<u8>>,
    mappings: Vec<(u64, u64)>,
    stats: VmStats,
}

impl Model {
    fn write(&mut self, addr: u64, bytes: &[u8]) {
        for (i, &b) in bytes.iter().enumerate() {
            let a = addr + i as u64;
            let stats = &mut self.stats;
            let page = self.pages.entry(a / PAGE).or_insert_with(|| {
                stats.pages_committed_total += 1;
                stats.rss_bytes += PAGE;
                stats.peak_rss_bytes = stats.peak_rss_bytes.max(stats.rss_bytes);
                vec![0; PAGE as usize]
            });
            page[(a % PAGE) as usize] = b;
        }
    }

    fn read(&self, addr: u64, len: usize) -> Vec<u8> {
        (addr..addr + len as u64)
            .map(|a| self.pages.get(&(a / PAGE)).map_or(0, |p| p[(a % PAGE) as usize]))
            .collect()
    }

    fn decommit(&mut self, pages: std::ops::Range<u64>) -> u64 {
        let released = pages.filter(|p| self.pages.remove(p).is_some()).count() as u64;
        self.stats.pages_decommitted_total += released;
        self.stats.rss_bytes -= released * PAGE;
        released * PAGE
    }
}

/// Split one random word into the fields an op needs.
struct Fields(u64);

impl Fields {
    fn take(&mut self, n: u64) -> u64 {
        let v = self.0 % n;
        self.0 /= n;
        v
    }
}

proptest! {
    #[test]
    fn page_table_matches_the_reference_model(words in collection::vec(0u64..u64::MAX, 1..120)) {
        let vm = VirtualMemory::shared(PAGE as usize);
        let mut model = Model::default();
        for (step, word) in words.into_iter().enumerate() {
            let mut f = Fields(word);
            let op = f.take(8);
            if op == 0 || model.mappings.is_empty() {
                // Up to ~2.3 granules, so mappings end mid-granule.
                let len = 1 + f.take(75 * 1024);
                let base = vm.map(len);
                let len = len.div_ceil(PAGE) * PAGE;
                prop_assert_eq!(base.0 % PAGE, 0);
                if let Some(&(prev, prev_len)) = model.mappings.last() {
                    prop_assert!(base.0 >= prev + prev_len + PAGE, "guard page between mappings");
                }
                model.mappings.push((base.0, len));
                model.stats.mapped_bytes += len;
            } else {
                let which = f.take(model.mappings.len() as u64) as usize;
                let (base, map_len) = model.mappings[which];
                let len = (1 + f.take(3 * PAGE)).min(map_len);
                let addr = base + f.take(map_len - len + 1);
                let byte = f.take(255) as u8 + 1;
                match op {
                    1 | 2 => {
                        let bytes: Vec<u8> = (0..len).map(|i| byte.wrapping_add(i as u8)).collect();
                        vm.write_bytes(VirtAddr(addr), &bytes);
                        model.write(addr, &bytes);
                    }
                    3 => {
                        vm.fill(VirtAddr(addr), byte, len as usize);
                        model.write(addr, &vec![byte; len as usize]);
                    }
                    4 => {
                        // Overlapping in either direction as often as not.
                        let dst = base + f.take(map_len - len + 1);
                        let dst = if f.take(2) == 0 { dst } else {
                            (addr + f.take(2 * len)).saturating_sub(len).clamp(base, base + map_len - len)
                        };
                        vm.copy(VirtAddr(addr), VirtAddr(dst), len as usize);
                        let bytes = model.read(addr, len as usize);
                        model.write(dst, &bytes);
                    }
                    5 => {
                        // Whole pages are released, partial edges are not; the
                        // range may run past the mapping into unmapped space.
                        let len = f.take(40 * PAGE);
                        model.stats.madvise_calls += 1;
                        let pages = (addr.div_ceil(PAGE))..((addr + len) / PAGE);
                        let released = if len == 0 { 0 } else { model.decommit(pages) };
                        prop_assert_eq!(vm.madvise_dontneed(VirtAddr(addr), len), released);
                    }
                    6 if step % 3 == 0 => {
                        vm.unmap(VirtAddr(base));
                        model.mappings.remove(which);
                        model.stats.mapped_bytes -= map_len;
                        model.decommit(base / PAGE..(base + map_len) / PAGE);
                        prop_assert_eq!(vm.read_vec(VirtAddr(base), map_len.min(4096) as usize),
                            vec![0; map_len.min(4096) as usize]);
                    }
                    _ => {
                        // Reads may straddle the end of the mapping: zeroes there.
                        let len = len as usize + PAGE as usize;
                        prop_assert_eq!(vm.read_vec(VirtAddr(addr), len), model.read(addr, len));
                    }
                }
                if let Some(&(base, map_len)) = model.mappings.get(which) {
                    let window = (addr.saturating_sub(PAGE).max(base), (4 * PAGE).min(map_len) as usize);
                    prop_assert_eq!(vm.read_vec(VirtAddr(window.0), window.1), model.read(window.0, window.1));
                }
            }
            prop_assert_eq!(vm.stats(), model.stats, "after step {}", step);
            prop_assert_eq!(vm.resident_pages(), model.pages.len() as u64);
        }
        // Everything the model holds, the page table holds, byte for byte
        // (and, the resident counts being equal, nothing else).
        for (page, bytes) in &model.pages {
            prop_assert_eq!(&vm.read_vec(VirtAddr(page * PAGE), PAGE as usize), bytes);
        }
    }
}

#[test]
fn copy_has_memmove_semantics_in_both_directions() {
    // Longer than the copy's internal buffer, so the order of its pieces
    // matters; overlaps both shorter and longer than one piece.
    let vm = VirtualMemory::shared(4096);
    let base = vm.map(64 * 1024);
    let pattern: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
    for shift in [1, 300, 2048, 3000, 9_999] {
        for (src, dst) in [(20_000, 20_000 + shift), (20_000 + shift, 20_000)] {
            vm.write_bytes(base.add(src), &pattern);
            vm.copy(base.add(src), base.add(dst), pattern.len());
            assert_eq!(vm.read_vec(base.add(dst), pattern.len()), pattern, "{src} -> {dst}");
        }
    }
}

#[test]
fn accounting_stays_exact_under_threads() {
    const WRITERS: usize = 4;
    const OBJECTS: usize = 64;
    const OBJECT: u64 = 96; // not a divisor of the page size: objects share pages
    const ROUNDS: u64 = 2_000;
    let page = 4096u64;
    let vm = VirtualMemory::shared(page as usize);
    let objects = vm.map(WRITERS as u64 * OBJECTS as u64 * OBJECT);
    let scratch = vm.map(32 * page);
    let start = Barrier::new(WRITERS + 1);

    let last_writes: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let writers: Vec<_> = (0..WRITERS as u64)
            .map(|t| {
                let (vm, start) = (&vm, &start);
                scope.spawn(move || {
                    start.wait();
                    // Thread `t` owns objects t, t + WRITERS, t + 2·WRITERS, …:
                    // neighbours in memory belong to different threads.
                    let mut last = vec![0u64; OBJECTS];
                    for round in 1..=ROUNDS {
                        let i = (round * 7 % OBJECTS as u64) as usize;
                        let addr = objects.add((i as u64 * WRITERS as u64 + t) * OBJECT);
                        last[i] = t << 32 | round;
                        let stamp = last[i].to_le_bytes().repeat(OBJECT as usize / 8);
                        vm.write_bytes(addr, &stamp);
                        assert_eq!(vm.read_vec(addr, stamp.len()), stamp, "own object, own write");
                    }
                    last
                })
            })
            .collect();
        // Meanwhile: commit, release and re-touch pages of another mapping.
        start.wait();
        for round in 0..ROUNDS {
            let p = round % 32;
            vm.write_u64(scratch.add(p * page + 8), round);
            if round % 3 == 0 {
                vm.madvise_dontneed(scratch.add((p / 4) * 4 * page), 4 * page);
            }
        }
        writers.into_iter().map(|w| w.join().expect("writer")).collect()
    });

    let st = vm.stats();
    assert_eq!(st.rss_bytes, vm.resident_pages() * page);
    assert_eq!(st.pages_committed_total - st.pages_decommitted_total, vm.resident_pages());
    assert!(st.peak_rss_bytes >= st.rss_bytes);
    assert_eq!(st.madvise_calls, ROUNDS.div_ceil(3));
    for (t, last) in last_writes.iter().enumerate() {
        for (i, &stamp) in last.iter().enumerate() {
            let addr = objects.add((i * WRITERS + t) as u64 * OBJECT);
            let expect = stamp.to_le_bytes().repeat(OBJECT as usize / 8);
            assert_eq!(vm.read_vec(addr, expect.len()), expect, "thread {t} object {i}");
        }
    }
}
