//! Giving a consumed input back to the kernel while it is read. A bulk
//! load that copies a caller's `Vec` into a structure of its own would
//! otherwise hold both until the copy ends; handing back the pages the
//! copy has moved past keeps it at one copy plus one step.

use std::iter::Take;
use std::vec;

/// The base page `madvise` works in: 4 KiB on every x86-64 Linux.
const PAGE: usize = 4 << 10;

/// Whether this target gives pages back at all.
const GIVES_BACK: bool = cfg!(all(target_os = "linux", target_arch = "x86_64", not(miri)));

/// The whole pages strictly inside `[start, front)` that lie at or
/// above `given`, as `(addr, len)` in bytes, or `None` when there are
/// none. The page holding `start` — where the allocator keeps its
/// header — and the partial page at `front` are never part of it.
fn consumed_pages(start: usize, front: usize, given: usize) -> Option<(usize, usize)> {
    let lo = ((start / PAGE + 1) * PAGE).max(given);
    let hi = front / PAGE * PAGE;
    (lo < hi).then(|| (lo, hi - lo))
}

/// An owned `Vec` read front to back in runs, whose consumed pages go
/// back to the kernel on [`give_back`](Self::give_back) while the rest
/// stays readable.
///
/// Runs are handed out as `Take<&mut vec::IntoIter<T>>`, an exact-size
/// trusted-length iterator, so `Vec::extend` copies each one on its
/// fast path. The buffer's address is recorded here and never handed
/// out, and no caller can reach the `IntoIter` itself, so what counts
/// as consumed is decided by this type alone.
///
/// On Linux x86-64 a give-back is `madvise(MADV_DONTNEED)` over the
/// consumed whole pages; everywhere else, for zero-sized items and
/// under Miri it does nothing. Dropping a `GiveBack` drops the items
/// not yet read and frees the buffer, as dropping the `IntoIter` would.
///
/// ```
/// use fiting_sync::GiveBack;
///
/// let mut input = GiveBack::new((0..100_000u64).collect());
/// let mut copy = Vec::new();
/// while !input.is_empty() {
///     copy.extend(input.next_run(4_096));
///     input.give_back();
/// }
/// assert!(copy.iter().copied().eq(0..100_000));
/// ```
#[derive(Debug)]
pub struct GiveBack<T> {
    items: vec::IntoIter<T>,
    /// Address of the buffer's first byte.
    start: usize,
    /// Address one past the last item the buffer was handed with.
    end: usize,
    /// Address below which every page was already given back.
    given: usize,
}

impl<T> GiveBack<T> {
    /// Takes ownership of `items`, to be read from the front.
    #[must_use]
    pub fn new(items: Vec<T>) -> Self {
        let start = items.as_ptr() as usize;
        let end = start + std::mem::size_of_val(items.as_slice());
        GiveBack {
            items: items.into_iter(),
            start,
            end,
            given: start,
        }
    }

    /// Whether every item has been read.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.len() == 0
    }

    /// The next `len` items (fewer at the end), read as the run is.
    pub fn next_run(&mut self, len: usize) -> Take<&mut vec::IntoIter<T>> {
        self.items.by_ref().take(len)
    }

    /// The address of the first item not yet read: everything in
    /// `[start, front)` has been moved out.
    fn front(&self) -> usize {
        if self.is_empty() {
            self.end
        } else {
            self.items.as_slice().as_ptr() as usize
        }
    }

    /// Returns the whole pages of already-read items to the kernel and
    /// reports how many bytes that was. Items not yet read keep their
    /// values; the page holding the buffer's first byte and the partial
    /// page at the first unread item are kept.
    pub fn give_back(&mut self) -> usize {
        if std::mem::size_of::<T>() == 0 || !GIVES_BACK {
            return 0;
        }
        let Some((addr, len)) = consumed_pages(self.start, self.front(), self.given) else {
            return 0;
        };
        self.given = addr + len;
        #[cfg(all(target_os = "linux", target_arch = "x86_64", not(miri)))]
        {
            const MADV_DONTNEED: std::ffi::c_int = 4;
            extern "C" {
                fn madvise(
                    addr: *mut std::ffi::c_void,
                    len: usize,
                    advice: std::ffi::c_int,
                ) -> std::ffi::c_int;
            }
            // safety: `addr..addr + len` is whole 4 KiB pages (the base
            // page of every x86-64 Linux, so the kernel rounds nothing
            // up) strictly inside the buffer `items` owns, which stays
            // allocated while `self` lives: above the page holding its
            // first byte and below the first item not yet read. Every
            // item there was moved out through `next_run`'s iterator,
            // and `vec::IntoIter` never reads a consumed slot again:
            // its later reads start at the unread front and its `Drop`
            // drops only the unread items before it frees the buffer.
            // After `MADV_DONTNEED` those bytes read as zero (on the
            // private anonymous memory the system allocator maps), and
            // nothing reads them: not `IntoIter`, and not the allocator,
            // whose header lies before the first page and whose freed
            // blocks hold no promised contents. No pointer into them is
            // live: runs borrow `self` mutably, so none outlives this
            // call's `&mut self`. A failure leaves the bytes as they
            // were.
            if unsafe { madvise(addr as *mut std::ffi::c_void, len, MADV_DONTNEED) } == 0 {
                return len;
            }
        }
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn only_whole_pages_strictly_inside_the_consumed_prefix() {
        // The page holding the buffer's first byte is kept, aligned or
        // not, and so is the partial page at the front.
        let start = 10 * PAGE;
        assert_eq!(
            consumed_pages(start, start + 5 * PAGE, start),
            Some((11 * PAGE, 4 * PAGE))
        );
        assert_eq!(
            consumed_pages(start + 8, start + 5 * PAGE + 100, start + 8),
            Some((11 * PAGE, 4 * PAGE))
        );
        assert_eq!(
            consumed_pages(start + PAGE - 1, start + 3 * PAGE - 1, start),
            Some((11 * PAGE, PAGE))
        );
        // Not a whole page past the first one yet.
        assert_eq!(consumed_pages(start, start + 2 * PAGE - 1, start), None);
        assert_eq!(consumed_pages(start + 16, start + 16, start + 16), None);
        // Pages already given back are not asked for again.
        assert_eq!(
            consumed_pages(start, start + 9 * PAGE, 15 * PAGE),
            Some((15 * PAGE, 4 * PAGE))
        );
        assert_eq!(consumed_pages(start, start + 9 * PAGE, 19 * PAGE), None);
    }

    #[test]
    fn nothing_to_give_back_makes_no_call() {
        let mut empty = GiveBack::new(Vec::<u64>::new());
        assert!(empty.is_empty());
        assert_eq!(empty.next_run(10).count(), 0);
        assert_eq!(empty.give_back(), 0);

        let mut zst = GiveBack::new(vec![(); 1 << 20]);
        assert_eq!(zst.next_run(1 << 19).count(), 1 << 19);
        assert_eq!(zst.give_back(), 0);

        let mut small = GiveBack::new(vec![7u8; PAGE - 1]);
        assert!(small.next_run(PAGE).all(|b| b == 7));
        assert!(small.is_empty());
        assert_eq!(small.give_back(), 0);
        // The buffer's first byte and the edge page are one page apart.
        let start = small.start;
        assert_eq!(consumed_pages(start, small.end, start), None);
    }

    #[test]
    fn unread_items_read_back_intact() {
        let n = 1 << 18;
        let mut input = GiveBack::new((0..n as u64).collect());
        let mut copy: Vec<u64> = Vec::new();
        let mut given = 0;
        while !input.is_empty() {
            copy.extend(input.next_run(3_000));
            given += input.give_back();
            // The unread tail is whole after every give-back.
            let rest = input.items.as_slice();
            let first = copy.len() as u64;
            assert!(rest.iter().copied().eq(first..n as u64));
        }
        assert!(copy.iter().copied().eq(0..n as u64));
        if GIVES_BACK {
            // All but the first and the last page went back.
            assert!(given >= n * 8 - 2 * PAGE, "gave back {given}");
        }
    }

    /// An item that counts its drops, wide enough that a few hundred
    /// span many pages.
    struct Counted<'a> {
        id: usize,
        drops: &'a Cell<usize>,
        pad: [u64; 60],
    }

    impl Drop for Counted<'_> {
        fn drop(&mut self) {
            self.drops.set(self.drops.get() + 1);
        }
    }

    fn counted(drops: &Cell<usize>, n: usize) -> Vec<Counted<'_>> {
        (0..n)
            .map(|id| Counted {
                id,
                drops,
                pad: [id as u64; 60],
            })
            .collect()
    }

    #[test]
    fn every_item_is_dropped_once_however_far_the_reading_got() {
        let n = 2_000;
        for read in [n, n / 2, 0] {
            let drops = Cell::new(0);
            let mut input = GiveBack::new(counted(&drops, n));
            for (at, item) in input.next_run(read).enumerate() {
                assert_eq!(item.id, at);
                assert!(item.pad.iter().all(|&p| p == item.id as u64));
            }
            input.give_back();
            assert_eq!(drops.get(), read, "read {read}");
            // What was not read is still whole after the give-back.
            for (at, item) in input.items.as_slice().iter().enumerate() {
                assert_eq!(item.id, read + at);
                assert!(item.pad.iter().all(|&p| p == item.id as u64));
            }
            drop(input);
            assert_eq!(drops.get(), n, "read {read}");
        }
    }

    /// How many of the pages in `addr..addr + len` are resident, read
    /// from `/proc/self/pagemap` (bit 63 of each page's entry). Only
    /// the range's own pages count: a malloc arena the buffer shares
    /// with other tests' allocations, or a mapping another test's
    /// `madvise` splits, cannot move it.
    #[cfg(all(target_os = "linux", target_arch = "x86_64", not(miri)))]
    fn resident_pages(addr: usize, len: usize) -> usize {
        use std::io::{Read, Seek, SeekFrom};
        let mut pagemap = std::fs::File::open("/proc/self/pagemap").expect("pagemap is readable");
        let (first, last) = (addr / PAGE, (addr + len).div_ceil(PAGE));
        pagemap
            .seek(SeekFrom::Start(first as u64 * 8))
            .expect("pagemap seeks");
        let mut entries = vec![0u8; (last - first) * 8];
        pagemap.read_exact(&mut entries).expect("pagemap reads");
        entries
            .chunks_exact(8)
            .filter(|e| u64::from_le_bytes((*e).try_into().expect("8 bytes")) >> 63 == 1)
            .count()
    }

    #[cfg(all(target_os = "linux", target_arch = "x86_64", not(miri)))]
    #[test]
    fn giving_back_half_a_faulted_buffer_drops_its_resident_size() {
        let n = (16 << 20) / 8;
        // Every page written, so every page is resident.
        let mut input = GiveBack::new((0..n as u64).collect());
        let bytes = input.end - input.start;
        let before = resident_pages(input.start, bytes);
        assert_eq!(input.next_run(n / 2).count(), n / 2);
        let given = input.give_back();
        let after = resident_pages(input.start, bytes);
        assert!(given >= (8 << 20) - 2 * PAGE, "gave back {given}");
        assert!(
            before * PAGE >= after * PAGE + (7 << 20),
            "{before} pages resident before, {after} after"
        );
        let rest = input.next_run(n);
        assert!(rest.eq(n as u64 / 2..n as u64));
    }
}
