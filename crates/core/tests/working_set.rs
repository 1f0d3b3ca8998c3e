//! What a run holds, measured under a counting global allocator.
//!
//! Per draw: for each driver whose memory grows with B, the peak heap grows
//! by no more per added draw than admission charges per draw, the figure
//! its refusal at a huge B names (DESIGN.md §4.2.1). Stored sampling
//! (`--fixed-seed n`) holds nothing per draw: its peak heap does not grow
//! with B. Each thread's peak is
//! kept apart and the peaks are summed: the heap the run would hold if every
//! thread peaked at once, which is what admission charges, and a figure that
//! does not depend on how the threads happened to interleave.
//!
//! The hand-off: a `pmaxt run` admission owns its matrix, and the one-rank
//! `pmaxt` body runs on it without a copy. From admission to result, the
//! only matrix-sized block allocated is the scorer's column layout, where
//! the NA code is rewritten in place.
//!
//! One `#[test]`, so no other test allocates while the counters run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering::Relaxed};

use mpi_sim::SectionTimer;
use sprint_core::admit::{admit, Entry};
use sprint_core::boot::boot_run;
use sprint_core::error::Error;
use sprint_core::matrix::Matrix;
use sprint_core::maxt::minp::{mt_minp, pminp};
use sprint_core::maxt::sample::sample_teststats;
use sprint_core::maxt::{maxt_with_config, EngineConfig};
use sprint_core::options::{PmaxtOptions, Workload};
use sprint_core::pmaxt::{pmaxt, pmaxt_on, sections, MasterInput};

/// Per-thread live heap bytes and their peaks, one slot per thread, and the
/// count of blocks of at least `BIG_FROM` bytes.
struct Counting;

const SLOTS: usize = 4096;
static LIVE: [AtomicIsize; SLOTS] = [const { AtomicIsize::new(0) }; SLOTS];
static PEAK: [AtomicIsize; SLOTS] = [const { AtomicIsize::new(0) }; SLOTS];
static NEXT: AtomicUsize = AtomicUsize::new(0);
static BIG: AtomicUsize = AtomicUsize::new(0);
static BIG_FROM: AtomicUsize = AtomicUsize::new(usize::MAX);

thread_local! {
    static SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// This thread's slot; the last one is shared by threads past `SLOTS - 1`
/// and by a thread tearing down its locals.
fn slot() -> usize {
    SLOT.try_with(|slot| {
        if slot.get() == usize::MAX {
            slot.set(NEXT.fetch_add(1, Relaxed).min(SLOTS - 1));
        }
        slot.get()
    })
    .unwrap_or(SLOTS - 1)
}

fn track(freed: usize, taken: usize) {
    let s = slot();
    let live = LIVE[s].fetch_add(taken as isize - freed as isize, Relaxed);
    PEAK[s].fetch_max(live + taken as isize - freed as isize, Relaxed);
    if taken >= BIG_FROM.load(Relaxed) {
        BIG.fetch_add(1, Relaxed);
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(0, layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        track(0, layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(layout.size(), new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(layout.size(), 0);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The sum over threads of each thread's peak heap above what it held when
/// `run` started.
fn peak_of<T>(run: impl FnOnce() -> T) -> isize {
    let mut before = vec![0isize; SLOTS];
    for (s, held) in before.iter_mut().enumerate() {
        *held = LIVE[s].load(Relaxed);
        PEAK[s].store(*held, Relaxed);
    }
    drop(run());
    (0..SLOTS).map(|s| PEAK[s].load(Relaxed) - before[s]).sum()
}

/// The bytes per draw a refusal names: "each draw holds … = N bytes".
fn charged(refusal: Error) -> u64 {
    match refusal {
        Error::BadOption { param: "b", value } => value
            .split(" = ")
            .nth(1)
            .and_then(|rest| rest.split(' ').next())
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("no per-draw bytes in {value:?}")),
        other => panic!("expected a B refusal, got {other:?}"),
    }
}

fn dataset(genes: usize, cols: usize) -> (Matrix, Vec<u8>) {
    let cells = (0..genes * cols)
        .map(|i| ((i * 7919) % 1013) as f64 / 17.0)
        .collect();
    let labels = (0..cols).map(|c| u8::from(c >= cols / 2)).collect();
    (Matrix::from_vec(genes, cols, cells).unwrap(), labels)
}

/// A driver, run at B, refused at a huge B.
type Driver<'a> = Box<dyn Fn(u64) -> Result<(), Error> + 'a>;

#[test]
fn drivers_hold_what_admission_charges() {
    let (data, labels) = dataset(40, 12);
    // More genes than one minP block.
    let (wide, wide_labels) = dataset(300, 12);
    let opts = PmaxtOptions::default().seed(5);
    let stored = opts.clone().fixed_seed_sampling("n").unwrap();
    let with_b = |o: &PmaxtOptions, b: u64| o.clone().permutations(b);
    // A full block of 256 genes, finalized by two workers.
    let (boot_data, boot_labels) = dataset(256, 10);
    let boot = opts.clone().workload(Workload::Bootstrap).threads(2);

    let drivers: Vec<(&str, Driver)> = vec![
        (
            "mt_minp",
            Box::new(|b| mt_minp(&data, &labels, &with_b(&opts, b)).map(drop)),
        ),
        (
            "pminp, 3 ranks",
            Box::new(|b| pminp(&data, &labels, &with_b(&opts, b).threads(1), 3).map(drop)),
        ),
        (
            "mt_minp, 300 genes",
            Box::new(|b| mt_minp(&wide, &wide_labels, &with_b(&opts, b)).map(drop)),
        ),
        (
            "pminp, 300 genes, 3 ranks",
            Box::new(|b| pminp(&wide, &wide_labels, &with_b(&opts, b).threads(1), 3).map(drop)),
        ),
        (
            "sample_teststats",
            Box::new(|b| sample_teststats(&data, &labels, &with_b(&opts, b), 0).map(drop)),
        ),
        (
            "boot_run, 2 workers",
            Box::new(|b| boot_run(&boot_data, &boot_labels, &with_b(&boot, b)).map(drop)),
        ),
    ];
    // Both above the 512 values a sort keeps on the stack, so a sort's
    // heap scratch is there at both.
    let (small, large) = (1000u64, 2000u64);
    for (name, driver) in &drivers {
        let per_draw = charged(driver(1 << 40).unwrap_err());
        let at_small = peak_of(|| driver(small).unwrap());
        let at_large = peak_of(|| driver(large).unwrap());
        let growth = at_large - at_small;
        let allowed = (per_draw * (large - small)) as isize;
        assert!(
            growth <= allowed,
            "{name}: peak heap grew {growth} bytes over {} draws, more than the {per_draw} \
             bytes per draw admission charges",
            large - small
        );
    }

    // Stored sampling draws its sequential stream on the fly, the engine's
    // workers pulling batches from one stream per pass: B costs it no heap,
    // where every engine worker once stored all B label vectors. Less than
    // a byte per added draw, over many draws, is a heap that does not grow
    // with B.
    let on_the_fly: Vec<(&str, Driver)> = vec![
        (
            "stored maxt_with_config, 2 threads",
            Box::new(|b| {
                let cfg = EngineConfig::explicit(2, 8);
                maxt_with_config(&data, &labels, &with_b(&stored, b), cfg).map(drop)
            }),
        ),
        (
            "stored pmaxt, 3 ranks",
            Box::new(|b| pmaxt(&data, &labels, &with_b(&stored, b).threads(1), 3).map(drop)),
        ),
    ];
    let many = 50_000u64;
    for (name, driver) in &on_the_fly {
        let at_small = peak_of(|| driver(small).unwrap());
        let at_many = peak_of(|| driver(many).unwrap());
        let growth = at_many - at_small;
        assert!(
            growth < (many - small) as isize,
            "{name}: peak heap grew {growth} bytes over {} draws",
            many - small
        );
    }

    // The hand-off: an owned, NA-coded matrix admitted at `pmaxt run`'s
    // entry runs through the one-rank body with no copy of the matrix.
    let (genes, cols) = (300usize, 24usize);
    let (coded, labels) = dataset(genes, cols);
    let mut cells = coded.into_vec();
    for cell in cells.iter_mut().step_by(13) {
        *cell = -99.0;
    }
    let coded = Matrix::from_vec(genes, cols, cells).unwrap();
    let opts = PmaxtOptions::default()
        .permutations(60)
        .na_code(-99.0)
        .threads(1)
        .batch(cols / 3);
    let entry = Entry::Cli {
        ranks: 1,
        minp: false,
        replay: false,
    };
    BIG.store(0, Relaxed);
    BIG_FROM.store(genes * cols * 8, Relaxed);
    let mut timer = SectionTimer::new();
    let admitted = timer
        .time(sections::PRE_PROCESSING, || {
            admit(coded, &labels, &opts, entry)
        })
        .unwrap();
    let run = pmaxt_on(MasterInput::new(timer, admitted), 1).unwrap();
    BIG_FROM.store(usize::MAX, Relaxed);
    assert_eq!(run.result.b_used, 60);
    // The fast f64 scorer's column layout; none under SPRINT_KERNEL=scalar
    // or SPRINT_PRECISION=f32.
    let blocks = BIG.load(Relaxed);
    assert!(
        blocks <= 1,
        "{blocks} matrix-sized blocks; one is the scorer's"
    );
}
