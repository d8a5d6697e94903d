//! Warm compiled inference allocates a fixed handful of heap blocks per
//! call, whatever the batch size, and none while the plan executes; a warm
//! `localize_batch` allocates three 1-D channels per observation and never
//! a block larger than one of them; a warm training step's backward pass
//! allocates a pinned number of blocks, none as large as its patch input;
//! the DAM's training write allocates a pinned handful, none larger than a
//! channel; a warm `Adam::step` copies each parameter once and allocates
//! nothing else; and no slice kernel of `tensor::kernels` allocates at all.
//! These are the hot paths' allocation budgets, measured: the GEMM bands
//! and the plan executor are reached by the first two, the keyed draws
//! (`perturb_row`, Philox `block`, `KeyedNoise::row`) by the DAM's.
//!
//! This binary installs a counting `#[global_allocator]`: the counts are
//! kept per thread, so the harness's own threads and the other tests
//! cannot disturb them, and the whole forward pass runs on the counting
//! thread, as every computation does.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use autograd::Tape;
use fingerprint::{base_devices, DatasetConfig, FingerprintDataset, FingerprintObservation};
use nn::optim::Adam;
use nn::{Layer, Param, Session};
use tensor::kernels::{self, AdamStep, Standardizer};
use tensor::rng::{DrawKey, SeededRng};
use tensor::{BinaryOp, Tensor};
use vital::{
    DamConfig, DataAugmentationModule, Localizer, RssiImageCreator, VisionTransformer, VitalConfig,
    VitalModel,
};

thread_local! {
    /// Heap allocations made by this thread (const-initialised and without
    /// a destructor, so touching it inside the allocator allocates nothing).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Largest single block this thread has asked for, in bytes.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = LARGEST.try_with(|n| n.set(n.get().max(bytes)));
}

struct Counting;

// SAFETY: every call forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is an update of two
// const-initialised, destructor-free thread-local `Cell`s, which neither
// allocates nor unwinds (`try_with` covers a thread that is tearing down).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Allocations of one warm `predict_folded` call: `(whole call, after the
/// fill closure returned)`. The second number covers the plan's execution
/// and the argmax that builds the answer.
fn warm_call(vit: &VisionTransformer, samples: usize) -> (u64, u64) {
    let fill = |input: &mut [f32], filled_at: &Cell<u64>| {
        for (i, v) in input.iter_mut().enumerate() {
            *v = (i % 7) as f32 * 0.125 - 0.375;
        }
        filled_at.set(allocs());
        Ok(())
    };
    // Warm-up: builds the plan for this batch size, its first arena and the
    // thread's GEMM packing scratch.
    let warm = Cell::new(0);
    let expected = vit.predict_folded(samples, |x| fill(x, &warm)).unwrap();

    let filled_at = Cell::new(0);
    let before = allocs();
    let predictions = vit
        .predict_folded(samples, |x| fill(x, &filled_at))
        .unwrap();
    let after = allocs();
    assert_eq!(predictions, expected);
    assert_eq!(predictions.len(), samples);
    (after - before, after - filled_at.get())
}

/// What a warm call may allocate, measured when this test was written:
/// 20 blocks while `weight_stamp()` collects the model's `Vec<Param>` to
/// key the plan cache (one small `Vec` per layer's `params()` and the
/// growth of the vectors that gather them: a function of the layer
/// structure, never of the batch), and the returned `Vec<usize>`.
const WARM_ALLOCS: u64 = 21;

#[test]
fn warm_predict_folded_allocates_the_same_handful_at_every_batch_size() {
    let vit = VisionTransformer::new(&mut SeededRng::new(3), &VitalConfig::fast(18, 8)).unwrap();
    let before = allocs();
    std::hint::black_box(vit.weight_stamp());
    let stamp_allocs = allocs() - before;
    for samples in [1, 16, 32] {
        let (per_call, after_fill) = warm_call(&vit, samples);
        assert_eq!(
            after_fill, 1,
            "batch {samples}: once the input is filled only the returned Vec<usize> may be \
             allocated; more is a per-step, per-band or per-pack allocation in the plan"
        );
        assert_eq!(
            per_call,
            stamp_allocs + 1,
            "batch {samples}: a warm call allocates for the weight stamp and the answer only"
        );
        assert!(
            per_call <= WARM_ALLOCS,
            "batch {samples}: {per_call} allocations per warm call, {WARM_ALLOCS} when pinned"
        );
    }
}

/// What the backward pass of a warm training step of [`training_backward`]
/// allocates, measured when this test was written: the gradient buffers
/// the tape's ops build (about one per differentiated operand) and their
/// closures' scratch, a function of the graph and never of the SIMD level
/// or thread count.
const BACKWARD_ALLOCS: u64 = 616;

/// `(allocations, largest block)` of `Session::backward` in a training
/// step of `samples` observations of `input` through `vit`.
fn training_backward(vit: &VisionTransformer, input: &Tensor, samples: usize) -> (u64, usize) {
    let tape = Tape::new();
    let mut session = Session::keyed(&tape, DrawKey::new(1, [0, 0]));
    let x = session.constant(input.clone());
    let labels: Vec<usize> = (0..samples).collect();
    let loss = vit
        .forward(&mut session, x, samples)
        .unwrap()
        .softmax_cross_entropy(&labels)
        .unwrap();
    LARGEST.set(0);
    let before = allocs();
    let grads = session.backward(loss).unwrap();
    let measured = (allocs() - before, LARGEST.get());
    assert_eq!(
        grads.len(),
        vit.params().len(),
        "every weight gets a gradient"
    );
    measured
}

#[test]
fn warm_training_backward_allocates_nothing_the_size_of_its_input() {
    let vit = VisionTransformer::new(&mut SeededRng::new(3), &VitalConfig::fast(18, 8)).unwrap();
    let samples = 4;
    let dims = [samples * vit.num_patches(), vit.patch_dim()];
    let input = SeededRng::new(5).uniform_tensor(&dims, -1.0, 1.0);
    let input_bytes = input.len() * std::mem::size_of::<f32>();
    // Warm-up: the thread's GEMM packing scratch.
    training_backward(&vit, &input, samples);
    let (blocks, largest) = training_backward(&vit, &input, samples);
    assert!(
        largest < input_bytes,
        "the backward pass allocated a block of {largest} bytes; the stacked patch input \
         is {input_bytes}, and as a constant it gets no gradient"
    );
    assert_eq!(
        blocks, BACKWARD_ALLOCS,
        "a warm training backward allocated {blocks} blocks, {BACKWARD_ALLOCS} when pinned"
    );
}

#[test]
fn warm_localize_batch_allocates_nothing_the_size_of_an_image() {
    let building = sim_radio::building_1();
    let dataset = FingerprintDataset::collect(
        &building,
        &base_devices()[..1],
        &DatasetConfig {
            captures_per_rp: 1,
            samples_per_capture: 2,
            seed: 1,
        },
    );
    // The paper's 10 × 10 patch grid at a size a debug build trains on.
    let mut config = VitalConfig::fast(dataset.num_aps(), dataset.num_rps());
    config.image_size = 120;
    config.patch_size = 12;
    config.train.epochs = 1;
    let channel_bytes = config.image_size * std::mem::size_of::<f32>();
    let mut model = VitalModel::new(config).unwrap();
    let batch = &dataset.observations()[..16];
    let seen = FingerprintDataset::from_observations(
        dataset.building(),
        dataset.num_aps(),
        dataset.num_rps(),
        batch.to_vec(),
    );
    model.fit(&seen).unwrap();
    let before = allocs();
    std::hint::black_box(model.transformer().weight_stamp());
    let stamp_allocs = allocs() - before;
    // Warm-up: the plan for this batch size and its arena.
    let expected = model.localize_batch(batch).unwrap();
    LARGEST.set(0);
    let before = allocs();
    assert_eq!(model.localize_batch(batch).unwrap(), expected);
    let (blocks, largest) = (allocs() - before, LARGEST.get());
    assert!(
        largest <= channel_bytes,
        "a warm localize_batch allocated a block of {largest} bytes; one channel of the 1-D              image is {channel_bytes}, and nothing larger (a replicated row, a patch, the image) \
         is ever to be materialised"
    );
    assert_eq!(
        blocks,
        stamp_allocs + 2 + 3 * batch.len() as u64,
        "a warm localize_batch allocates for the weight stamp, the chunk's labels, the \
         answer and the three resampled channels of each observation; the DAM normalises \
         those straight into the plan's input"
    );
}

/// What one `write_patches(.., training = true, ..)` call allocates,
/// measured when this test was written: the three normalised channels, the
/// row of pixels being perturbed, and the six buffers of its `KeyedNoise`
/// (radius, turns, sine, cosine, normals, dropped), each once. The keyed
/// draws row by row (`perturb_row`, `perturb`, the Philox `block`,
/// `KeyedNoise::row`) allocate nothing: one allocation there runs once per
/// replicated row of every channel, 3 · R times a call.
const DAM_TRAINING_ALLOCS: u64 = 10;

#[test]
fn the_dams_training_write_allocates_a_pinned_handful_none_larger_than_a_channel() {
    let (image_size, patch_size) = (120, 12);
    let aps = 18;
    let ramp = |offset: f32| (0..aps).map(|i| i as f32 * 0.5 + offset).collect();
    let observation = FingerprintObservation {
        rp_label: 0,
        device: "probe".into(),
        min: ramp(-90.0),
        max: ramp(-60.0),
        mean: ramp(-75.0),
    };
    let image = RssiImageCreator::new(image_size)
        .create(&observation)
        .unwrap();
    let dam = DataAugmentationModule::new(DamConfig::default());
    let per_side = image_size / patch_size;
    let mut out = vec![0.0; per_side * per_side * 3 * patch_size * patch_size];
    let channel_bytes = image_size * std::mem::size_of::<f32>();
    let key = DrawKey::new(7, [1, 2]);
    let mut write = |training: bool| {
        dam.write_patches(&image, patch_size, training, key, &mut out)
            .unwrap();
    };
    // Warm-up: the SIMD level's first resolution.
    write(true);
    // Inference mode (`write_replicated`) allocates the three normalised
    // channels only.
    for (training, pinned) in [(true, DAM_TRAINING_ALLOCS), (false, 3)] {
        LARGEST.set(0);
        let before = allocs();
        write(training);
        let (blocks, largest) = (allocs() - before, LARGEST.get());
        assert!(
            largest <= channel_bytes,
            "training = {training}: the DAM allocated a block of {largest} bytes; a channel is \
             {channel_bytes}, and no replicated row, patch or image is ever to be built"
        );
        assert_eq!(
            blocks, pinned,
            "training = {training}: the DAM's write allocated {blocks} blocks, {pinned} when \
             pinned"
        );
    }
}

/// What a warm `Adam::step` allocates per parameter, measured when this
/// test was written: all of it the copy of the parameter's value it
/// updates — the snapshot's shape (`p.value()` clones the `Vec` of dims)
/// and the copy-on-write of its shared storage (the `Arc` and its
/// buffer). The moments are kept between steps and `adam_update` works in
/// place.
const ADAM_ALLOCS_PER_PARAM: u64 = 3;

#[test]
fn a_warm_adam_step_copies_each_parameter_once_and_allocates_nothing_else() {
    let vit = VisionTransformer::new(&mut SeededRng::new(3), &VitalConfig::fast(18, 8)).unwrap();
    let grads: Vec<(Param, Tensor)> = vit
        .params()
        .into_iter()
        .map(|p| {
            let value = p.value();
            let grad = Tensor::from_vec(vec![0.01; value.len()], value.shape().dims()).unwrap();
            (p, grad)
        })
        .collect();
    let largest_param = grads.iter().map(|(p, _)| p.len()).max().unwrap_or(0);
    let mut adam = Adam::new(1e-3);
    // Warm-up: the moment estimates of every parameter.
    adam.step(&grads);
    LARGEST.set(0);
    let before = allocs();
    adam.step(&grads);
    let (blocks, largest) = (allocs() - before, LARGEST.get());
    assert_eq!(
        blocks,
        ADAM_ALLOCS_PER_PARAM * grads.len() as u64,
        "a warm Adam step over {} parameters allocated {blocks} blocks: the copy of each \
         parameter's value is the budget, and `adam_update` allocates nothing",
        grads.len()
    );
    assert_eq!(
        largest,
        largest_param * std::mem::size_of::<f32>(),
        "the largest block of a warm Adam step is the copy of the largest parameter"
    );
}

/// The operands of the slice-kernel table: 6 × 4 matrices and their
/// outputs.
struct Operands {
    lhs: Vec<f32>,
    rhs: Vec<f32>,
    out: Vec<f32>,
    m: Vec<f32>,
    v: Vec<f32>,
    rows: Vec<usize>,
}

/// In an order whose chain does not come back to where it started.
const OPS: [BinaryOp; 4] = [BinaryOp::Sub, BinaryOp::Mul, BinaryOp::Add, BinaryOp::Div];

/// A kernel's name (the public functions of `tensor::kernels` it calls)
/// and a call of it on [`Operands`].
type SliceKernel = (&'static str, fn(&mut Operands));

/// Every public function of `tensor::kernels`, called once on
/// [`Operands`].
const SLICE_KERNELS: [SliceKernel; 11] = [
    ("binary_assign", |o| {
        for op in OPS {
            kernels::binary_assign(op, &mut o.out, &o.rhs);
        }
    }),
    ("binary_assign_rhs", |o| {
        for op in OPS {
            kernels::binary_assign_rhs(op, &o.lhs, &mut o.out);
        }
    }),
    ("add_tile_rows", |o| {
        kernels::add_tile_rows(&mut o.out, &o.rhs[..4])
    }),
    ("fold_patch_rows", |o| {
        kernels::fold_patch_rows(&o.lhs, 2, 2, &mut o.out[..12]);
    }),
    ("Standardizer::of + apply", |o| {
        let standardizer = Standardizer::of(&o.lhs);
        for (out, &value) in o.out.iter_mut().zip(&o.rhs) {
            *out = standardizer.apply(value);
        }
    }),
    ("mean_row_blocks", |o| {
        kernels::mean_row_blocks(&o.lhs, 2, 4, &mut o.out[..12]);
    }),
    ("copy_rows", |o| {
        kernels::copy_rows(&o.lhs, 4, &mut o.out, 4, 3)
    }),
    ("concat_rows", |o| {
        kernels::concat_rows([&o.lhs[..12], &o.rhs[..12]], &mut o.out);
    }),
    ("concat_cols", |o| {
        kernels::concat_cols([(&o.lhs[..12], 2), (&o.rhs[..12], 2)], 4, &mut o.out);
    }),
    ("adam_update", |o| {
        let step = AdamStep {
            lr: 1e-3,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            inv_bias1: 10.0,
            inv_bias2: 1000.0,
        };
        kernels::adam_update(&mut o.out, &o.rhs, &mut o.m, &mut o.v, &step);
    }),
    ("argmax_rows", |o| {
        kernels::argmax_rows(&o.lhs, 4, &mut o.rows).unwrap();
    }),
];

#[test]
fn no_slice_kernel_allocates() {
    let ramp = |scale: f32| {
        (0..24)
            .map(|i| (i as f32 - 11.5) * scale)
            .collect::<Vec<f32>>()
    };
    for (name, kernel) in SLICE_KERNELS {
        let mut operands = Operands {
            lhs: ramp(0.25),
            rhs: ramp(-0.5),
            out: ramp(0.125),
            m: vec![0.0; 24],
            v: vec![0.0; 24],
            rows: vec![0; 6],
        };
        let untouched = (operands.out.clone(), operands.rows.clone());
        let before = allocs();
        kernel(&mut operands);
        let blocks = allocs() - before;
        assert_eq!(blocks, 0, "`{name}` allocated {blocks} blocks");
        assert_ne!(
            (operands.out, operands.rows),
            untouched,
            "`{name}` wrote nothing: the table must call it on operands it changes"
        );
    }
}

#[test]
fn the_kernel_table_names_every_public_kernel() {
    let words = |text: &'static str| text.split(|c: char| !(c.is_alphanumeric() || c == '_'));
    let named: Vec<&str> = SLICE_KERNELS
        .iter()
        .flat_map(|(name, _)| words(name))
        .collect();
    let source = include_str!("../../tensor/src/kernels.rs");
    for line in source.lines() {
        if let Some(signature) = line.trim_start().strip_prefix("pub fn ") {
            let kernel = words(signature).next().unwrap_or_default();
            assert!(
                named.contains(&kernel),
                "tensor::kernels::{kernel} has no row in SLICE_KERNELS, so nothing measures \
                 that it allocates nothing"
            );
        }
    }
}
