//! Two memory hints for the page lookup. A read-prefetch asks for a
//! cache line before the load that needs it, so two misses whose
//! addresses are both known overlap instead of queueing behind each
//! other. A huge-page advice asks the kernel to back a large array with
//! 2 MiB pages, so a lookup that lands anywhere in it finds its
//! translation in the TLB instead of walking the page tables.

use std::mem::MaybeUninit;

/// Hints that the cache line holding `*value` will be read soon. It
/// reads nothing, never faults, and never changes what a later load
/// observes, so a safe reference is the whole contract. x86-64 issues
/// `prefetcht0`; every other architecture compiles this to nothing.
#[inline(always)]
pub fn prefetch_read<T>(value: &T) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // safety: `prefetcht0` is a hint, not an access — it cannot
        // fault or write and is architecturally a no-op on an address
        // that is not backed, so the dangling (but aligned) pointer of
        // a zero-sized `T` is as fine as a live one; SSE, the feature
        // the intrinsic is gated on, is part of the x86-64 baseline.
        unsafe { _mm_prefetch::<_MM_HINT_T0>(std::ptr::from_ref(value).cast::<i8>()) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = value;
}

/// The huge-page size the advice is aligned to.
#[cfg(any(all(target_os = "linux", not(miri)), test))]
const HUGE_PAGE: usize = 2 << 20;

/// The 2 MiB-aligned interior of `spare` as `(offset, len)` in bytes,
/// or `None` when it holds no whole huge page.
#[cfg(any(all(target_os = "linux", not(miri)), test))]
fn huge_interior<T>(spare: &[MaybeUninit<T>]) -> Option<(usize, usize)> {
    let start = spare.as_ptr() as usize;
    let end = start + std::mem::size_of_val(spare);
    let lo = start.checked_next_multiple_of(HUGE_PAGE)?;
    let hi = end / HUGE_PAGE * HUGE_PAGE;
    (lo < hi).then(|| (lo - start, hi - lo))
}

/// Advises the kernel to back the whole 2 MiB pages inside `spare` —
/// typically a `Vec`'s `spare_capacity_mut()`, before it is written —
/// with transparent huge pages. A slice holding no whole huge page is
/// left alone, and so is every byte outside the aligned interior. Like
/// [`prefetch_read`] it is a hint on memory the caller owns: it never
/// changes what a load observes, and its result is ignored. Linux
/// issues `madvise(MADV_HUGEPAGE)`, which applies where the kernel runs
/// transparent huge pages in `madvise` or `always` mode; every other
/// target, and Miri, compiles this to nothing.
pub fn advise_huge_pages<T>(spare: &[MaybeUninit<T>]) {
    #[cfg(all(target_os = "linux", not(miri)))]
    if let Some((offset, len)) = huge_interior(spare) {
        const MADV_HUGEPAGE: std::ffi::c_int = 14;
        extern "C" {
            fn madvise(
                addr: *mut std::ffi::c_void,
                len: usize,
                advice: std::ffi::c_int,
            ) -> std::ffi::c_int;
        }
        let addr = spare.as_ptr().cast::<u8>().wrapping_add(offset);
        // safety: `addr..addr + len` lies inside `spare`, which the
        // borrow keeps allocated for the call, and starts on a page
        // boundary as `madvise` requires. `MADV_HUGEPAGE` only marks
        // how the kernel may back the range: it reads and writes no
        // byte of it, unlike `MADV_DONTNEED`, so every later load sees
        // what it would have seen without the call. A failure (a
        // kernel without transparent huge pages) changes nothing.
        unsafe { madvise(addr.cast_mut().cast(), len, MADV_HUGEPAGE) };
    }
    #[cfg(not(all(target_os = "linux", not(miri))))]
    let _ = spare;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_is_a_hint_on_every_kind_of_reference() {
        let run: Vec<u64> = (0..1_000).collect();
        prefetch_read(&run[0]);
        prefetch_read(&run[run.len() - 1]);
        assert_eq!(run, (0..1_000).collect::<Vec<u64>>());

        // Zero-sized: the reference is dangling but aligned.
        prefetch_read(&());

        // A one-byte heap allocation: the line extends past the object.
        let boxed = Box::new(7u8);
        prefetch_read(&*boxed);
        assert_eq!(*boxed, 7);
    }

    #[test]
    fn advice_without_a_whole_huge_page_is_a_no_op() {
        let mut empty: Vec<u64> = Vec::new();
        assert_eq!(huge_interior(empty.spare_capacity_mut()), None);
        let mut zst: Vec<()> = Vec::with_capacity(1 << 30);
        assert_eq!(huge_interior(zst.spare_capacity_mut()), None);
        advise_huge_pages(zst.spare_capacity_mut());
        // Under 2 MiB never spans a whole aligned huge page.
        let mut small: Vec<u8> = Vec::with_capacity(HUGE_PAGE - 1);
        assert_eq!(huge_interior(small.spare_capacity_mut()), None);
        advise_huge_pages(small.spare_capacity_mut());
        advise_huge_pages::<u64>(&[]);
    }

    #[test]
    fn advice_keeps_contents_and_covers_only_the_aligned_interior() {
        let mut run: Vec<u64> = Vec::with_capacity(3 * HUGE_PAGE / 8);
        run.extend(0..1_000);
        let spare = run.spare_capacity_mut();
        let (offset, len) = huge_interior(spare).expect("6 MiB hold a whole huge page");
        let start = spare.as_ptr() as usize + offset;
        assert_eq!(start % HUGE_PAGE, 0);
        assert!(len >= HUGE_PAGE && len % HUGE_PAGE == 0);
        assert!(offset + len <= std::mem::size_of_val(spare));
        advise_huge_pages(spare);
        assert!(run.iter().copied().eq(0..1_000));
        run.extend(1_000..run.capacity() as u64);
        assert!(run.iter().copied().eq(0..run.len() as u64));
    }

    /// The mapping of `/proc/self/smaps` holding `addr`, as its
    /// `THPeligible` flag.
    #[cfg(all(target_os = "linux", not(miri)))]
    fn thp_eligible(addr: usize) -> Option<bool> {
        let smaps = std::fs::read_to_string("/proc/self/smaps").expect("smaps is readable");
        let mut inside = false;
        for line in smaps.lines() {
            let range = line.split_whitespace().next().and_then(|field| {
                let (lo, hi) = field.split_once('-')?;
                Some(usize::from_str_radix(lo, 16).ok()?..usize::from_str_radix(hi, 16).ok()?)
            });
            if let Some(range) = range {
                inside = range.contains(&addr);
            } else if let Some(flag) = line.strip_prefix("THPeligible:").filter(|_| inside) {
                return Some(flag.trim() == "1");
            }
        }
        None
    }

    #[cfg(all(target_os = "linux", not(miri)))]
    #[test]
    fn advised_spare_capacity_is_eligible_for_huge_pages_unless_thp_is_off() {
        let mode = std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled")
            .unwrap_or_else(|_| "[never]".into());
        let mut run: Vec<u64> = Vec::with_capacity(HUGE_PAGE);
        let spare = run.spare_capacity_mut();
        let (offset, _) = huge_interior(spare).expect("16 MiB hold a whole huge page");
        let addr = spare.as_ptr() as usize + offset;
        advise_huge_pages(spare);
        run.push(7);
        let eligible = thp_eligible(addr);
        if mode.contains("[never]") {
            assert_ne!(eligible, Some(true), "THP is off: {mode}");
        } else {
            assert_eq!(eligible, Some(true), "THP mode {mode}");
        }
        assert_eq!(run, [7]);
    }
}
