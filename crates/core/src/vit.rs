//! The vision transformer adapted for indoor localization (paper §IV–V.B).
//!
//! The forward pass is written once against [`nn::Trace`] and has two
//! forms that meet after the positional add:
//!
//! * [`VisionTransformer::forward`], the **full-width** form over the
//!   stacked `[samples · N, 3·P²]` patch matrix: what training records
//!   (the DAM perturbs every replicated row, so no two patches are equal).
//!   [`VisionTransformer::forward_batch`] runs it eagerly on a tape.
//! * [`VisionTransformer::forward_folded`], the **folded** form over the
//!   `[samples · S, 3·P]` matrix of what is distinct in a *replicated*
//!   image (`S = ⌊R/P⌋`, `N = S²`): the online phase, where the DAM only
//!   replicates. The patch embedding runs against the weight summed over
//!   pixel rows ([`tensor::kernels::fold_patch_rows`], a plan constant) on
//!   `S` rows per sample instead of `S²` rows `P` times as wide, and each
//!   sample's `S` embedded rows are tiled `S` times onto the positional
//!   table. [`VisionTransformer::predict_folded`] compiles it, the model's
//!   one compiled inference entry; [`crate::VitalModel`] serves every
//!   observation through it.
//!
//! The eval tape records both forms (the eager oracle) and [`graph::Graph`]
//! the folded one (the compiled plan), so compiled ≡ eager, scalar ≡ AVX2
//! and batch ≡ single hold by construction. Between the forms the logits
//! agree to rounding: one product of a pre-summed weight against `P`
//! products in one chain (`baselines/tests/inference_bits.rs` pins each).

use autograd::Var;
use graph::{ExprId, Graph, GraphError, PlanCache};
use nn::{
    Activation, Dense, Init, Layer, LayerNorm, Mlp, MultiHeadSelfAttention, Param, Session, Trace,
};
use tensor::rng::SeededRng;
use tensor::{kernels, Tensor, TensorError};

use crate::{Result, VitalConfig, VitalError};

/// How the MSA and MLP sub-block outputs are combined inside an encoder
/// block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fusion {
    /// Standard ViT residual addition (requires the MLP to map back to
    /// `d_model`).
    Residual,
    /// Paper-style fusion: "concatenated the MSA sub-block output with the
    /// MLP sub-block outputs to restore any lost features" (§V.B). The block
    /// output width becomes `d_model + last_mlp_width`.
    Concat,
}

/// One transformer encoder block: layer-norm → multi-head self-attention
/// (+ residual) → layer-norm → GELU MLP, fused per the block's `Fusion`
/// mode (residual addition or paper-style concatenation).
#[derive(Debug, Clone)]
pub struct EncoderBlock {
    norm_attention: LayerNorm,
    attention: MultiHeadSelfAttention,
    norm_mlp: LayerNorm,
    mlp: Mlp,
    fusion: Fusion,
    out_width: usize,
}

impl EncoderBlock {
    fn new(
        rng: &mut SeededRng,
        d_model: usize,
        heads: usize,
        mlp_hidden: &[usize],
        fusion: Fusion,
    ) -> Result<Self> {
        let attention = MultiHeadSelfAttention::new(rng, d_model, heads)?;
        let (mlp_sizes, out_width) = match fusion {
            Fusion::Concat => {
                let mut sizes = vec![d_model];
                sizes.extend_from_slice(mlp_hidden);
                let last = *sizes.last().expect("sizes non-empty");
                (sizes, d_model + last)
            }
            Fusion::Residual => {
                let mut sizes = vec![d_model];
                sizes.extend_from_slice(mlp_hidden);
                sizes.push(d_model);
                (sizes, d_model)
            }
        };
        Ok(EncoderBlock {
            norm_attention: LayerNorm::new(d_model),
            attention,
            norm_mlp: LayerNorm::new(d_model),
            mlp: Mlp::new(rng, &mlp_sizes, Activation::Gelu),
            fusion,
            out_width,
        })
    }

    /// Width of the block's output features.
    pub fn out_width(&self) -> usize {
        self.out_width
    }

    /// Records the block over a stack of `samples` sequences laid out as a
    /// `[samples * num_patches, d_model]` matrix.
    ///
    /// Layer-norm and the MLP are row-wise, so they run directly on the
    /// stack (one big GEMM per dense layer instead of `samples` small ones);
    /// the attention sub-block — whose softmax couples the rows of a
    /// sample — takes the stack too and works through it one
    /// `(sample, head)` block at a time.
    ///
    /// # Errors
    /// Returns an error if the row count is not a multiple of `samples` or
    /// the width differs from the block's `d_model`.
    pub fn forward<T: Trace>(
        &self,
        t: &mut T,
        x: T::Node,
        samples: usize,
    ) -> std::result::Result<T::Node, T::Error> {
        let normed = self.norm_attention.forward(t, x)?;
        let attention = self.attention.forward(t, normed, samples)?;
        let attended = t.add(attention, x)?;
        let normed_mlp = self.norm_mlp.forward(t, attended)?;
        let mlp_out = self.mlp.forward(t, normed_mlp)?;
        match self.fusion {
            Fusion::Concat => t.concat_cols(&[attended, mlp_out]),
            Fusion::Residual => t.add(attended, mlp_out),
        }
    }
}

impl Layer for EncoderBlock {
    fn params(&self) -> Vec<Param> {
        let mut params = self.norm_attention.params();
        params.extend(self.attention.params());
        params.extend(self.norm_mlp.params());
        params.extend(self.mlp.params());
        params
    }
}

/// The VITAL vision transformer: patch embedding + positional embedding,
/// `L` encoder blocks, mean pooling and a fine-tuning MLP head that outputs
/// one logit per reference point.
#[derive(Debug, Clone)]
pub struct VisionTransformer {
    patch_embed: Dense,
    positional: Param,
    blocks: Vec<EncoderBlock>,
    head: Mlp,
    /// `P`: a patch is `P × P` pixels of three channels.
    patch_size: usize,
    /// `S = ⌊R/P⌋`: the image is cut into `S × S` patches.
    patches_per_side: usize,
    num_classes: usize,
    dropout: f32,
    /// Compiled plans of [`VisionTransformer::forward_folded`] keyed by
    /// `(batch, weight stamp)`. Clones of the model share the cache (they
    /// share the weights too), so N serving workers reuse one plan per
    /// batch shape.
    plans: PlanCache,
}

impl VisionTransformer {
    /// Builds a transformer for the given configuration.
    ///
    /// # Errors
    /// Returns [`VitalError::InvalidConfig`] if the configuration fails
    /// validation.
    pub fn new(rng: &mut SeededRng, config: &VitalConfig) -> Result<Self> {
        config.validate()?;
        let num_patches = config.num_patches();
        let patch_dim = config.patch_dim();
        let patch_embed = Dense::new(rng, patch_dim, config.d_model, Init::Xavier);
        let positional = Param::new(
            "vit.positional",
            Init::SmallNormal.weight(rng, num_patches, config.d_model),
        );

        let mut blocks = Vec::with_capacity(config.encoder_blocks);
        for block_index in 0..config.encoder_blocks {
            let is_last = block_index + 1 == config.encoder_blocks;
            // Only the final block may widen its output via concatenation;
            // earlier blocks must preserve d_model for the next block.
            let fusion = if is_last {
                Fusion::Concat
            } else {
                Fusion::Residual
            };
            blocks.push(EncoderBlock::new(
                rng,
                config.d_model,
                config.msa_heads,
                &config.encoder_mlp_hidden,
                fusion,
            )?);
        }
        let encoder_out = blocks
            .last()
            .map(EncoderBlock::out_width)
            .ok_or_else(|| VitalError::InvalidConfig("no encoder blocks".into()))?;

        let mut head_sizes = vec![encoder_out];
        head_sizes.extend_from_slice(&config.head_hidden);
        head_sizes.push(config.num_classes);
        let head = Mlp::new(rng, &head_sizes, Activation::Gelu).with_dropout(config.train.dropout);

        Ok(VisionTransformer {
            patch_embed,
            positional,
            blocks,
            head,
            patch_size: config.patch_size,
            patches_per_side: config.image_size / config.patch_size,
            num_classes: config.num_classes,
            dropout: config.train.dropout,
            plans: PlanCache::new(),
        })
    }

    /// Number of patches the model expects per image.
    pub fn num_patches(&self) -> usize {
        self.patches_per_side * self.patches_per_side
    }

    /// Flattened patch width the model expects.
    pub fn patch_dim(&self) -> usize {
        3 * self.patch_size * self.patch_size
    }

    /// Number of output classes (reference points).
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Distinct patches of a replicated image: the `⌊R/P⌋` patches of one
    /// patch row (every patch row of the grid repeats them).
    pub fn distinct_patches(&self) -> usize {
        self.patches_per_side
    }

    /// Width of one distinct patch: its three `P`-pixel channel runs, one
    /// pixel row of the `patch_dim`-wide patch.
    pub fn distinct_dim(&self) -> usize {
        3 * self.patch_size
    }

    /// Records the forward pass over `samples` images whose patch rows
    /// are stacked as one `[samples * num_patches, patch_dim]` matrix,
    /// producing `[samples, num_classes]` logits: the form training runs
    /// (its replicated rows are perturbed, so no two patches are equal).
    ///
    /// Executing the batch *stacked* makes the patch embedding, every
    /// layer-norm, every encoder MLP, every attention projection and the
    /// classification head each a single large GEMM over the whole batch.
    ///
    /// # Errors
    /// Returns an error if `stacked` does not have that shape.
    pub fn forward<T: Trace>(
        &self,
        t: &mut T,
        stacked: T::Node,
        samples: usize,
    ) -> std::result::Result<T::Node, T::Error> {
        // Linear trainable projection of flattened patches (paper §V.B)...
        let embedded = self.patch_embed.forward(t, stacked)?;
        // ...plus the positional embedding (tiled across the batch) that
        // keeps patch order information.
        let positional = t.param(&self.positional)?;
        let hidden = t.add_tile_rows(embedded, positional, samples)?;
        self.encode(t, hidden, samples)
    }

    /// Records the forward pass over `samples` *replicated* images — every
    /// image row the same `R` pixels, what the DAM produces at inference —
    /// given only what is distinct in them: `distinct` is the stacked
    /// `[samples * distinct_patches, distinct_dim]` matrix of each
    /// sample's one patch row, each patch its three `P`-pixel channel runs
    /// ([`crate::DataAugmentationModule::write_folded`]).
    ///
    /// A patch of such an image is its run repeated down `P` pixel rows,
    /// so its embedding is the run times the embedding weight summed over
    /// pixel rows ([`kernels::fold_patch_rows`], fixed when the pass is
    /// recorded: once per plan). The `S` patch rows of the grid are equal,
    /// so each sample's `S` embedded rows are tiled `S` times onto the
    /// positional table; from there on this is [`VisionTransformer::forward`].
    /// The logits differ from the full-width form's by rounding only (one
    /// product of a pre-summed weight where that has `P` products in one
    /// chain).
    ///
    /// # Errors
    /// Returns an error if `distinct` does not have that shape.
    pub fn forward_folded<T: Trace>(
        &self,
        t: &mut T,
        distinct: T::Node,
        samples: usize,
    ) -> std::result::Result<T::Node, T::Error> {
        let per_side = self.distinct_patches();
        let (rows, cols) = t.dims(distinct)?;
        if rows != samples * per_side {
            return Err(TensorError::ShapeMismatch {
                op: "vit.forward_folded",
                lhs: vec![rows, cols],
                rhs: vec![samples * per_side, self.distinct_dim()],
            }
            .into());
        }
        let folded = t.frozen(self.folded_embedding()?)?;
        let embedded = self.patch_embed.forward_with(t, distinct, folded)?;
        let positional = t.param(&self.positional)?;
        let mut tiled = Vec::with_capacity(samples);
        for s in 0..samples {
            let patch_row = t.slice_rows(embedded, s * per_side, (s + 1) * per_side)?;
            tiled.push(t.add_tile_rows(positional, patch_row, per_side)?);
        }
        let hidden = if samples == 1 {
            tiled[0]
        } else {
            t.concat_rows(&tiled)?
        };
        self.encode(t, hidden, samples)
    }

    /// The patch-embedding weight summed over the pixel rows of a patch,
    /// `[distinct_dim, d_model]`.
    fn folded_embedding(&self) -> tensor::Result<Tensor> {
        let weight = self.patch_embed.weight().value();
        let d_model = self.patch_embed.out_features();
        let mut folded = vec![0.0; self.distinct_dim() * d_model];
        kernels::fold_patch_rows(weight.as_slice(), self.patch_size, d_model, &mut folded);
        Tensor::from_vec(folded, &[self.distinct_dim(), d_model])
    }

    /// Everything past the positional add, over the stacked
    /// `[samples * num_patches, d_model]` embedded patches: the encoder
    /// blocks, the pooling and the head.
    fn encode<T: Trace>(
        &self,
        t: &mut T,
        embedded: T::Node,
        samples: usize,
    ) -> std::result::Result<T::Node, T::Error> {
        let mut hidden = t.dropout(embedded, self.dropout)?;
        for block in &self.blocks {
            hidden = block.forward(t, hidden, samples)?;
        }
        // Collapse each sample's patch rows to its pooled feature row.
        let pooled = t.mean_row_blocks(hidden, self.num_patches())?;
        self.head.forward(t, pooled)
    }

    /// [`VisionTransformer::forward`] of a batch of patch matrices on the
    /// tape, producing `[batch, num_classes]` logits: in an eval session
    /// the eager full-width form the tests and `examples/fold_distance.rs`
    /// hold the folded one against (training fills its stacked constant
    /// itself and calls `forward`).
    ///
    /// # Errors
    /// Returns an error if the batch is empty or any patch matrix has the
    /// wrong shape.
    pub fn forward_batch<'t>(
        &self,
        session: &mut Session<'t>,
        batch: &[Tensor],
    ) -> Result<Var<'t>> {
        if batch.is_empty() {
            return Err(VitalError::InvalidDataset("empty batch".into()));
        }
        let expected = [self.num_patches(), self.patch_dim()];
        if let Some(patches) = batch.iter().find(|p| p.shape().dims() != expected) {
            return Err(VitalError::InvalidDataset(format!(
                "patch matrix {:?} does not match model expectation {expected:?}",
                patches.shape().dims()
            )));
        }
        let refs: Vec<&Tensor> = batch.iter().collect();
        let stacked = session.constant(Tensor::concat_rows(&refs)?);
        Ok(self.forward(session, stacked, batch.len())?)
    }

    /// Batched inference over `samples` replicated images through a
    /// **compiled plan** of [`VisionTransformer::forward_folded`], the
    /// model's one compiled inference entry. The plan is built once per
    /// `(batch size, weight stamp)` — bias adds, activations and residual
    /// adds fused into their producing GEMMs, every intermediate in a
    /// reused buffer arena — and then executed with zero tensor
    /// allocations per call (`tests/warm_allocs.rs` pins the warm path's
    /// heap allocations). Its predictions are the argmax of the eager
    /// `forward_folded`'s logits, bit for bit.
    ///
    /// `fill` receives the stacked row-major
    /// `[samples · distinct_patches, distinct_dim]` input inside the
    /// execution arena and must write all of it (sample `i`'s patch row at
    /// `i · distinct_patches`). The replicated image is never materialised,
    /// in the arena or anywhere else.
    ///
    /// # Errors
    /// Returns an error if `samples` is zero, or whatever `fill` returns.
    pub fn predict_folded(
        &self,
        samples: usize,
        fill: impl FnOnce(&mut [f32]) -> Result<()>,
    ) -> Result<Vec<usize>> {
        if samples == 0 {
            return Err(VitalError::InvalidDataset("empty batch".into()));
        }
        let build = || self.build_folded_graph(samples);
        let stamp = self.weight_stamp();
        let entry = self.plans.get_or_build(samples, stamp, build)?;
        entry.execute_with(fill, |logits| {
            let mut labels = vec![0; samples];
            kernels::argmax_rows(logits, self.num_classes, &mut labels)?;
            Ok(labels)
        })?
    }

    /// Fingerprint of the current weights (folds every [`Param::version`]).
    pub fn weight_stamp(&self) -> u64 {
        nn::weight_stamp(&self.params())
    }

    /// Number of compiled plans currently cached.
    pub fn cached_plans(&self) -> usize {
        self.plans.len()
    }

    /// Records [`VisionTransformer::forward_folded`] for a `samples`-image
    /// batch into an expression graph whose one input is the stacked
    /// `[samples · distinct_patches, distinct_dim]` matrix.
    fn build_folded_graph(
        &self,
        samples: usize,
    ) -> std::result::Result<(Graph, ExprId), GraphError> {
        let mut g = Graph::new();
        let distinct = g.input(samples * self.distinct_patches(), self.distinct_dim());
        let logits = self.forward_folded(&mut g, distinct, samples)?;
        Ok((g, logits))
    }
}

impl Layer for VisionTransformer {
    fn params(&self) -> Vec<Param> {
        let mut params = self.patch_embed.params();
        params.push(self.positional.clone());
        for block in &self.blocks {
            params.extend(block.params());
        }
        params.extend(self.head.params());
        params
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autograd::Tape;

    fn tiny_config() -> VitalConfig {
        let mut c = VitalConfig::fast(18, 8);
        c.image_size = 12;
        c.patch_size = 4;
        c.d_model = 16;
        c.msa_heads = 4;
        c.encoder_mlp_hidden = vec![24, 12];
        c.head_hidden = vec![16];
        c
    }

    #[test]
    fn builds_with_expected_dimensions() {
        let config = tiny_config();
        let mut rng = SeededRng::new(0);
        let vit = VisionTransformer::new(&mut rng, &config).unwrap();
        assert_eq!(vit.num_patches(), 9);
        assert_eq!(vit.patch_dim(), 48);
        assert_eq!(vit.num_classes(), 8);
        assert!(vit.param_count() > 0);
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut config = tiny_config();
        config.d_model = 15; // not divisible by 4 heads
        let mut rng = SeededRng::new(0);
        assert!(VisionTransformer::new(&mut rng, &config).is_err());
    }

    #[test]
    fn forward_sample_produces_class_logits() {
        let config = tiny_config();
        let mut rng = SeededRng::new(1);
        let vit = VisionTransformer::new(&mut rng, &config).unwrap();
        let patches = SeededRng::new(2).uniform_tensor(&[9, 48], -1.0, 1.0);
        let tape = Tape::new();
        let mut session = Session::new(&tape, false, 0);
        let logits = vit
            .forward_batch(&mut session, std::slice::from_ref(&patches))
            .unwrap()
            .value();
        assert_eq!(logits.shape().dims(), &[1, 8]);
        assert!(logits.all_finite());
    }

    #[test]
    fn forward_sample_rejects_wrong_shape() {
        let config = tiny_config();
        let mut rng = SeededRng::new(3);
        let vit = VisionTransformer::new(&mut rng, &config).unwrap();
        let tape = Tape::new();
        let mut session = Session::new(&tape, false, 0);
        let bad = Tensor::zeros(&[4, 48]);
        assert!(vit.forward_batch(&mut session, &[bad]).is_err());
    }

    #[test]
    fn forward_batch_stacks_logits() {
        let config = tiny_config();
        let mut rng = SeededRng::new(4);
        let vit = VisionTransformer::new(&mut rng, &config).unwrap();
        let batch: Vec<Tensor> = (0..3)
            .map(|i| SeededRng::new(10 + i).uniform_tensor(&[9, 48], -1.0, 1.0))
            .collect();
        let tape = Tape::new();
        let mut session = Session::new(&tape, false, 0);
        let logits = vit.forward_batch(&mut session, &batch).unwrap().value();
        assert_eq!(logits.shape().dims(), &[3, 8]);
        assert!(vit.forward_batch(&mut session, &[]).is_err());
    }

    #[test]
    fn batched_forward_matches_per_sample_forward() {
        // The stacked batch path must be bit-identical to running each
        // sample alone (eval mode; every op is row-wise or per-sample).
        let mut config = tiny_config();
        config.encoder_blocks = 2;
        let mut rng = SeededRng::new(11);
        let vit = VisionTransformer::new(&mut rng, &config).unwrap();
        let batch: Vec<Tensor> = (0..4)
            .map(|i| SeededRng::new(30 + i).uniform_tensor(&[9, 48], -1.0, 1.0))
            .collect();
        let tape = Tape::new();
        let mut session = Session::new(&tape, false, 0);
        let batched = vit.forward_batch(&mut session, &batch).unwrap().value();
        assert_eq!(batched.shape().dims(), &[4, 8]);
        for (i, patches) in batch.iter().enumerate() {
            let tape_s = Tape::new();
            let mut session_s = Session::new(&tape_s, false, 0);
            let single = vit
                .forward_batch(&mut session_s, std::slice::from_ref(patches))
                .unwrap()
                .value();
            assert_eq!(
                batched.row(i).unwrap(),
                single.row(0).unwrap(),
                "sample {i} diverged between batched and single forward"
            );
        }
    }

    #[test]
    fn gradients_reach_every_parameter() {
        let config = tiny_config();
        let mut rng = SeededRng::new(5);
        let vit = VisionTransformer::new(&mut rng, &config).unwrap();
        let batch: Vec<Tensor> = (0..2)
            .map(|i| SeededRng::new(20 + i).uniform_tensor(&[9, 48], -1.0, 1.0))
            .collect();
        let tape = Tape::new();
        let mut session = Session::new(&tape, true, 1);
        let logits = vit.forward_batch(&mut session, &batch).unwrap();
        let loss = logits.softmax_cross_entropy(&[0, 3]).unwrap();
        let grads = session.backward(loss).unwrap();
        let missing: Vec<String> = vit
            .params()
            .iter()
            .filter(|p| !grads.iter().any(|(q, _)| q.key() == p.key()))
            .map(|p| p.name())
            .collect();
        assert!(missing.is_empty(), "params without grad: {missing:?}");
    }

    #[test]
    fn compiled_predict_matches_eager_across_batch_sizes() {
        let mut config = tiny_config();
        config.encoder_blocks = 2;
        let mut rng = SeededRng::new(40);
        let vit = VisionTransformer::new(&mut rng, &config).unwrap();
        for batch_size in [1usize, 2, 8] {
            let batch = distinct_rows(100, batch_size);
            let eager = folded_logits(&vit, &batch).argmax_rows().unwrap();
            assert_eq!(
                predict(&vit, &batch),
                eager,
                "compiled plan diverged from eager at batch {batch_size}"
            );
        }
        assert_eq!(vit.cached_plans(), 3, "one plan per batch shape");
        // Second pass over the same shapes must reuse the cached plans
        // (asked of this model's cache: the process-wide build counter
        // also counts the tests running beside this one).
        for batch_size in [1usize, 2, 8] {
            vit.plans
                .get_or_build(batch_size, vit.weight_stamp(), || {
                    panic!("batch {batch_size} rebuilt on a hit")
                })
                .unwrap();
        }
    }

    #[test]
    fn weight_updates_invalidate_cached_plans() {
        let config = tiny_config();
        let mut rng = SeededRng::new(41);
        let vit = VisionTransformer::new(&mut rng, &config).unwrap();
        let batch = distinct_rows(42, 1);
        predict(&vit, &batch);
        assert_eq!(vit.cached_plans(), 1);
        let stamp_before = vit.weight_stamp();
        // Mutate a weight the way the optimizer would.
        let p = &vit.params()[0];
        p.set_value(p.value().scale(0.5));
        assert_ne!(vit.weight_stamp(), stamp_before);
        assert_eq!(
            predict(&vit, &batch),
            folded_logits(&vit, &batch).argmax_rows().unwrap(),
            "post-update prediction must come from a fresh plan"
        );
        assert_eq!(
            vit.cached_plans(),
            1,
            "stale plan evicted, fresh one cached"
        );
    }

    #[test]
    fn predict_is_deterministic() {
        let config = tiny_config();
        let mut rng = SeededRng::new(6);
        let vit = VisionTransformer::new(&mut rng, &config).unwrap();
        let batch = distinct_rows(7, 1);
        assert_eq!(predict(&vit, &batch), predict(&vit, &batch));
    }

    #[test]
    fn paper_scale_parameter_count_is_reported_magnitude() {
        // §VI.B reports 234,706 trainable parameters for the 206/20/5-head
        // configuration without giving every layer width of the original
        // Keras model; `VitalConfig::paper` has this many, and
        // REPRODUCTION.md reports the gap as not reproduced.
        let config = VitalConfig::paper(206, 82);
        let mut rng = SeededRng::new(8);
        let vit = VisionTransformer::new(&mut rng, &config).unwrap();
        assert_eq!(vit.param_count(), 178_082);
    }

    #[test]
    fn paper_plan_at_batch_16_moves_no_bytes_it_does_not_have_to() {
        // The serve_bulk shape: one plan run of a batch-32 request, in the
        // folded form `localize_batch` serves.
        let config = VitalConfig::paper(206, 82);
        let mut rng = SeededRng::new(8);
        let vit = VisionTransformer::new(&mut rng, &config).unwrap();
        let (g, out) = vit.build_folded_graph(16).unwrap();
        let plan = graph::Compiler::new().compile(&g, out).unwrap();
        let count = |name: &str| plan.kernel_names().filter(|k| *k == name).count();
        let blocks = 16 * config.msa_heads * config.encoder_blocks;
        // Every slice is a view a GEMM or a tile add reads in place: none
        // is copied out.
        assert_eq!(count("copy"), 0);
        // Each sample's ten embedded rows are tiled onto the positional
        // table by one step, and one vertical concat stacks the results;
        // the only other one joins each encoder block's sample outputs.
        assert_eq!(count("add_tile_rows"), 16);
        assert_eq!(count("concat_rows"), config.encoder_blocks + 1);
        assert_eq!(count("softmax_rows"), blocks, "one softmax per block");
        // Two GEMMs per block, Q/K/V/O per encoder block, plus the patch
        // embedding and the MLPs.
        assert!(count("gemm") > 2 * blocks);
        // PR 12 compiled this shape to 562 steps in 116 slots of 22.56 MB,
        // next to 16 patch tensors (7.68 MB) and their 7.68 MB stack; until
        // the fold the plan's arena was 8,192,000 bytes, 7.68 MB of it the
        // stacked `[1600, 1200]` input.
        assert!(plan.step_count() <= 287, "steps: {}", plan.step_count());
        assert!(plan.slot_count() <= 24, "slots: {}", plan.slot_count());
        assert!(
            plan.arena_bytes() <= 2_700_000,
            "arena: {} bytes",
            plan.arena_bytes()
        );
    }

    /// The `[S², 3·P²]` patch matrix of the replicated image whose
    /// distinct patch row is `distinct` (`[S, 3·P]`): what the DAM writes
    /// at inference, rebuilt from what the folded path reads.
    fn replicate(distinct: &Tensor, patch: usize) -> Tensor {
        let per_side = distinct.shape().dims()[0];
        let mut data = Vec::with_capacity(per_side * per_side * 3 * patch * patch);
        for _patch_row in 0..per_side {
            for row in distinct.as_slice().chunks_exact(3 * patch) {
                for run in row.chunks_exact(patch) {
                    (0..patch).for_each(|_| data.extend_from_slice(run));
                }
            }
        }
        Tensor::from_vec(data, &[per_side * per_side, 3 * patch * patch]).unwrap()
    }

    /// `samples` seeded `[S, 3·P]` distinct patch rows of the tiny config,
    /// the `i`-th from seed `first_seed + i`.
    fn distinct_rows(first_seed: u64, samples: usize) -> Vec<Tensor> {
        (0..samples as u64)
            .map(|i| SeededRng::new(first_seed + i).uniform_tensor(&[3, 12], -1.0, 1.0))
            .collect()
    }

    /// Eager logits of the folded forward over `batch`.
    fn folded_logits(vit: &VisionTransformer, batch: &[Tensor]) -> Tensor {
        let refs: Vec<&Tensor> = batch.iter().collect();
        let tape = Tape::new();
        let mut session = Session::new(&tape, false, 0);
        let distinct = session.constant(Tensor::concat_rows(&refs).unwrap());
        vit.forward_folded(&mut session, distinct, batch.len())
            .unwrap()
            .value()
    }

    /// Compiled predictions of the folded forward over `batch`.
    fn predict(vit: &VisionTransformer, batch: &[Tensor]) -> Vec<usize> {
        vit.predict_folded(batch.len(), |input| {
            kernels::concat_rows(batch.iter().map(Tensor::as_slice), input);
            Ok(())
        })
        .unwrap()
    }

    #[test]
    fn folded_forward_is_compiled_exactly_batches_exactly_and_tracks_the_full_width_form() {
        let mut config = tiny_config();
        config.encoder_blocks = 2;
        let vit = VisionTransformer::new(&mut SeededRng::new(13), &config).unwrap();
        assert_eq!((vit.distinct_patches(), vit.distinct_dim()), (3, 12));
        for batch_size in [1usize, 2, 8] {
            let batch = distinct_rows(200, batch_size);
            let eager = folded_logits(&vit, &batch);
            assert_eq!(eager.shape().dims(), &[batch_size, 8]);
            // Compiled ≡ eager, and a batch is its samples one by one.
            assert_eq!(predict(&vit, &batch), eager.argmax_rows().unwrap());
            for (i, sample) in batch.iter().enumerate() {
                let single = folded_logits(&vit, std::slice::from_ref(sample));
                assert_eq!(eager.row(i).unwrap(), single.row(0).unwrap());
            }
            // The full-width form over the replicated image differs by the
            // rounding of one 48-term chain against one 12-term chain.
            let images: Vec<Tensor> = batch.iter().map(|d| replicate(d, 4)).collect();
            let tape = Tape::new();
            let mut session = Session::new(&tape, false, 0);
            let full = vit.forward_batch(&mut session, &images).unwrap().value();
            for (a, b) in eager.as_slice().iter().zip(full.as_slice()) {
                assert!((a - b).abs() < 1e-5, "folded {a} against full {b}");
            }
        }
    }

    #[test]
    fn folded_forward_rejects_an_input_that_is_not_its_samples_patch_rows() {
        let vit = VisionTransformer::new(&mut SeededRng::new(14), &tiny_config()).unwrap();
        let tape = Tape::new();
        let mut session = Session::new(&tape, false, 0);
        for dims in [[3, 12], [6, 11], [6, 48]] {
            let bad = session.constant(Tensor::zeros(&dims));
            assert!(
                vit.forward_folded(&mut session, bad, 2).is_err(),
                "{dims:?}"
            );
        }
        assert!(vit.predict_folded(0, |_| Ok(())).is_err());
    }

    #[test]
    fn a_failing_fill_returns_its_arena_and_the_next_call_serves() {
        let vit = VisionTransformer::new(&mut SeededRng::new(12), &tiny_config()).unwrap();
        let batch = distinct_rows(50, 3);
        let served = predict(&vit, &batch);
        let refused = vit.predict_folded(3, |input| {
            assert_eq!(input.len(), 3 * 3 * 12);
            Err(VitalError::NotFitted)
        });
        assert!(matches!(refused, Err(VitalError::NotFitted)));
        // The arena a failed fill held went back to the pool and serves on.
        assert_eq!(predict(&vit, &batch), served);
        assert_eq!(served, folded_logits(&vit, &batch).argmax_rows().unwrap());
    }

    #[test]
    fn multi_block_configuration_works() {
        let mut config = tiny_config();
        config.encoder_blocks = 2;
        let mut rng = SeededRng::new(9);
        let vit = VisionTransformer::new(&mut rng, &config).unwrap();
        assert!(predict(&vit, &distinct_rows(10, 1))[0] < 8);
    }
}
