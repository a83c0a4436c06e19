//! Process storage: boxed heterogeneous tables and contiguous slabs.
//!
//! The simulator's process table has two shapes behind one accessor
//! surface:
//!
//! * **Boxed** — `Vec<Box<dyn Process>>`, one heap allocation per
//!   process. Fully general: any mix of process types. This is what
//!   [`build`](crate::sim::SimulationBuilder::build) and
//!   [`build_with`](crate::sim::SimulationBuilder::build_with) produce.
//! * **Slab** — a homogeneous population stored contiguously in one
//!   `Vec<P>` arena: one allocation for all n processes instead of 10⁶
//!   separate boxes, which is what makes million-process builds fast and
//!   keeps stepping cache-friendly. Produced by
//!   [`build_slab`](crate::sim::SimulationBuilder::build_slab).
//!
//! The two are behaviorally identical — every access goes through
//! [`ProcessStore::get`]/[`ProcessStore::get_mut`].
//!
//! The sharded compute phase borrows the table as disjoint id ranges
//! ([`ProcessStore::split_mut`], `split_at_mut` underneath): each shard
//! task owns the `&mut` to its range, so that no two tasks reach the same
//! process is a borrow the compiler checks.

use crate::process::Process;

/// Backing storage for a simulation's process table (see module docs).
pub(crate) enum ProcessStore {
    /// One box per process; the general heterogeneous form.
    Boxed(Vec<Box<dyn Process>>),
    /// A contiguous homogeneous arena behind a type-erased accessor.
    Slab(Box<dyn Slab>),
}

impl ProcessStore {
    /// Wraps a homogeneous population in a slab store.
    pub(crate) fn slab<P: Process + 'static>(processes: Vec<P>) -> ProcessStore {
        ProcessStore::Slab(Box::new(TypedSlab(processes)))
    }

    /// Number of processes.
    pub(crate) fn len(&self) -> usize {
        match self {
            ProcessStore::Boxed(v) => v.len(),
            ProcessStore::Slab(s) => s.len(),
        }
    }

    /// Whether the store holds no processes.
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Process `i`, if in range.
    pub(crate) fn get(&self, i: usize) -> Option<&dyn Process> {
        match self {
            ProcessStore::Boxed(v) => v.get(i).map(|b| &**b),
            ProcessStore::Slab(s) => (i < s.len()).then(|| s.get(i)),
        }
    }

    /// Mutable process `i`, if in range.
    pub(crate) fn get_mut(&mut self, i: usize) -> Option<&mut dyn Process> {
        match self {
            // `as_mut_slice` pins method resolution to the slice's
            // `get_mut`, not the `ProcessAccess` impl on `Vec`.
            ProcessStore::Boxed(v) => match v.as_mut_slice().get_mut(i) {
                Some(b) => Some(&mut **b),
                None => None,
            },
            ProcessStore::Slab(s) => (i < s.len()).then(|| s.get_mut(i)),
        }
    }

    /// Splits the table into one mutable id range per entry of `firsts`
    /// (ascending, in range): range `k` covers ids `firsts[k]` up to the
    /// next entry, the last one up to the end of the table; ids below
    /// `firsts[0]` are in no range.
    pub(crate) fn split_mut(&mut self, firsts: &[usize]) -> Vec<Box<dyn ProcessRange + '_>> {
        match self {
            ProcessStore::Boxed(v) => split_ranges(v, firsts),
            ProcessStore::Slab(s) => s.split_mut(firsts),
        }
    }
}

/// Type-erased view of a homogeneous process arena. Implemented only by
/// [`TypedSlab`]; the indirection exists so [`ProcessStore`] need not be
/// generic over the process type.
pub(crate) trait Slab: Send {
    fn len(&self) -> usize;
    fn get(&self, i: usize) -> &dyn Process;
    fn get_mut(&mut self, i: usize) -> &mut dyn Process;
    fn split_mut(&mut self, firsts: &[usize]) -> Vec<Box<dyn ProcessRange + '_>>;
}

struct TypedSlab<P: Process + 'static>(Vec<P>);

impl<P: Process + 'static> Slab for TypedSlab<P> {
    fn len(&self) -> usize {
        self.0.len()
    }

    fn get(&self, i: usize) -> &dyn Process {
        &self.0[i]
    }

    fn get_mut(&mut self, i: usize) -> &mut dyn Process {
        &mut self.0[i]
    }

    fn split_mut(&mut self, firsts: &[usize]) -> Vec<Box<dyn ProcessRange + '_>> {
        split_ranges(&mut self.0, firsts)
    }
}

/// A contiguous id range of the process table, mutably borrowed by one
/// shard task for the length of a compute phase.
pub(crate) trait ProcessRange: Send {
    /// Process `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` lies outside the range.
    fn get_mut(&mut self, id: usize) -> &mut dyn Process;
}

/// Elements `first..first + items.len()` of a boxed or slab table.
struct Range<'a, T> {
    first: usize,
    items: &'a mut [T],
}

impl ProcessRange for Range<'_, Box<dyn Process>> {
    fn get_mut(&mut self, id: usize) -> &mut dyn Process {
        &mut *self.items[id - self.first]
    }
}

impl<P: Process> ProcessRange for Range<'_, P> {
    fn get_mut(&mut self, id: usize) -> &mut dyn Process {
        &mut self.items[id - self.first]
    }
}

/// [`ProcessStore::split_mut`] over either table shape.
fn split_ranges<'a, T>(table: &'a mut [T], firsts: &[usize]) -> Vec<Box<dyn ProcessRange + 'a>>
where
    Range<'a, T>: ProcessRange,
{
    let len = table.len();
    // `rest` always begins at the id the next range starts with.
    let mut rest = &mut table[firsts.first().copied().unwrap_or(len)..];
    firsts
        .iter()
        .enumerate()
        .map(|(k, &first)| {
            let end = firsts.get(k + 1).copied().unwrap_or(len);
            let (items, tail) = std::mem::take(&mut rest).split_at_mut(end - first);
            rest = tail;
            Box::new(Range { first, items }) as Box<dyn ProcessRange + 'a>
        })
        .collect()
}

/// The mutable per-process access a transient fault needs, implemented by
/// the simulator's store and by plain boxed vectors (the fault fixtures).
pub(crate) trait ProcessAccess {
    fn get_mut(&mut self, i: usize) -> Option<&mut dyn Process>;
}

impl ProcessAccess for ProcessStore {
    fn get_mut(&mut self, i: usize) -> Option<&mut dyn Process> {
        ProcessStore::get_mut(self, i)
    }
}

impl ProcessAccess for Vec<Box<dyn Process>> {
    fn get_mut(&mut self, i: usize) -> Option<&mut dyn Process> {
        match self.as_mut_slice().get_mut(i) {
            Some(b) => Some(&mut **b),
            None => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::Context;

    struct Tag(u32);

    impl Process for Tag {
        fn on_pulse(&mut self, _ctx: &mut Context<'_>) {}
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    fn tag_of(p: &dyn Process) -> u32 {
        p.as_any().downcast_ref::<Tag>().unwrap().0
    }

    fn boxed_tags(n: u32) -> ProcessStore {
        ProcessStore::Boxed(
            (0..n)
                .map(|i| Box::new(Tag(i)) as Box<dyn Process>)
                .collect(),
        )
    }

    #[test]
    fn slab_and_boxed_answer_identically() {
        let mut slab = ProcessStore::slab((0..5u32).map(Tag).collect());
        let mut boxed = boxed_tags(5);
        for store in [&mut slab, &mut boxed] {
            assert_eq!(store.len(), 5);
            for i in 0..5 {
                assert_eq!(tag_of(store.get(i).unwrap()), i as u32);
                assert_eq!(tag_of(store.get_mut(i).unwrap()), i as u32);
            }
            assert!(store.get(5).is_none());
            assert!(store.get_mut(5).is_none());
        }
    }

    /// Whether `range.get_mut(id)` panics, i.e. `id` is outside the range.
    fn outside(range: &mut dyn ProcessRange, id: usize) -> bool {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            range.get_mut(id);
        }))
        .is_err()
    }

    /// Splits `store` at `firsts`, adds 1000 to the tag of every id each
    /// range owns, and checks the ranges tile `firsts[0]..n`: every id
    /// there is reached exactly once and under its own id, ids below are
    /// in no range, and a range ends where the next begins.
    fn check_split(store: &mut ProcessStore, firsts: &[usize]) {
        let n = store.len();
        let mut ranges = store.split_mut(firsts);
        assert_eq!(ranges.len(), firsts.len());
        for (k, range) in ranges.iter_mut().enumerate() {
            let end = firsts.get(k + 1).copied().unwrap_or(n);
            for id in firsts[k]..end {
                let tag = range
                    .get_mut(id)
                    .as_any_mut()
                    .downcast_mut::<Tag>()
                    .unwrap();
                assert_eq!(tag.0, id as u32, "range {k} maps id {id} to its own slot");
                tag.0 += 1000;
            }
            assert!(outside(range.as_mut(), end), "range {k} stops at {end}");
            if firsts[k] > 0 {
                assert!(
                    outside(range.as_mut(), firsts[k] - 1),
                    "range {k} starts at its first"
                );
            }
        }
        drop(ranges);
        let lowest = firsts.first().copied().unwrap_or(n);
        for id in 0..n {
            let expected = if id < lowest { id } else { id + 1000 };
            assert_eq!(tag_of(store.get(id).unwrap()), expected as u32, "id {id}");
        }
    }

    mod split {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn split_mut_reaches_every_id_exactly_once(
                n in 1u32..40,
                mask in proptest::collection::vec(any::<bool>(), 40),
            ) {
                let firsts: Vec<usize> = (0..n as usize).filter(|&i| mask[i]).collect();
                check_split(&mut ProcessStore::slab((0..n).map(Tag).collect()), &firsts);
                check_split(&mut boxed_tags(n), &firsts);
            }
        }
    }
}
