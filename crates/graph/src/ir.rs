//! The expression IR: named ops over [`ExprId`] nodes with eager shape
//! inference.
//!
//! A [`Graph`] is an append-only list of nodes. Every builder method
//! type-checks its operands' shapes *at insertion time* and returns a
//! typed [`GraphError`] on mismatch, so a graph that builds successfully
//! always compiles; the compiler never re-derives shapes. All values are
//! rank-2 row-major matrices (rank-1 constants are adopted as single
//! rows), which matches the tensor substrate's matrix-only hot paths.
//!
//! Nodes reference runtime [inputs](Graph::input) by position and
//! [constants](Graph::constant) — weight snapshots taken at build time —
//! by value. Constants deduplicate on storage identity, so unrolled loops
//! (e.g. per-sample attention) that re-push the same `Arc`-backed weight
//! tensor share one constant slot.

use std::collections::HashMap;

use tensor::{BinaryOp, MatmulSpec, Tensor, UnaryOp};

use crate::error::GraphError;

/// Handle to one node of a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExprId(pub(crate) usize);

/// A named reduction over rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Numerically stable softmax over each row (three passes: max,
    /// exp-accumulate, normalise — `simd::softmax_rows`).
    SoftmaxRows,
    /// Mean over consecutive blocks of rows: `(B·k) × c → B × c`.
    MeanRowBlocks {
        /// Rows per block.
        block_rows: usize,
    },
}

/// One expression node.
#[derive(Debug, Clone)]
pub enum Op {
    /// The `index`-th runtime input.
    Input {
        /// Position in the execute-time input list.
        index: usize,
    },
    /// The `index`-th compile-time constant (a weight snapshot).
    Constant {
        /// Position in the graph's constant table.
        index: usize,
    },
    /// `op(a) · op(b)` per the spec's transpose flags.
    Matmul {
        /// Left operand.
        a: ExprId,
        /// Right operand.
        b: ExprId,
        /// Which operands are read transposed.
        spec: MatmulSpec,
    },
    /// Elementwise named unary op.
    Unary {
        /// Operand.
        x: ExprId,
        /// The operation.
        op: UnaryOp,
    },
    /// Elementwise named binary op over same-shape operands.
    Binary {
        /// Left operand.
        a: ExprId,
        /// Right operand.
        b: ExprId,
        /// The operation.
        op: BinaryOp,
    },
    /// Row-wise reduction.
    Reduce {
        /// Operand.
        x: ExprId,
        /// The reduction.
        op: ReduceOp,
    },
    /// `x + row` broadcast over every row (bias add).
    AddRowBroadcast {
        /// Matrix operand.
        x: ExprId,
        /// Single-row operand.
        row: ExprId,
    },
    /// Fused layer norm: per-row standardise then `· γ + β`.
    LayerNorm {
        /// Matrix operand.
        x: ExprId,
        /// Per-feature scale (single row).
        gamma: ExprId,
        /// Per-feature shift (single row).
        beta: ExprId,
        /// Variance epsilon.
        eps: f32,
    },
    /// `x + tile` where `tile` is vertically repeated `reps` times
    /// (positional-embedding add over a stacked batch).
    AddTileRows {
        /// Matrix operand of `reps · tile_rows` rows.
        x: ExprId,
        /// The tile.
        tile: ExprId,
        /// Vertical repetitions.
        reps: usize,
    },
    /// Vertical concatenation.
    ConcatRows {
        /// Parts, stacked top to bottom.
        parts: Vec<ExprId>,
    },
    /// Horizontal concatenation.
    ConcatCols {
        /// Parts, laid out left to right.
        parts: Vec<ExprId>,
    },
    /// Rows `[start, end)` (a view of the operand in a compiled plan).
    SliceRows {
        /// Operand.
        x: ExprId,
        /// First row.
        start: usize,
        /// One past the last row.
        end: usize,
    },
    /// Columns `[start, end)` (a strided view in a compiled plan).
    SliceCols {
        /// Operand.
        x: ExprId,
        /// First column.
        start: usize,
        /// One past the last column.
        end: usize,
    },
    /// Multi-head self-attention of `samples` stacked sequences:
    /// `softmax(Q·Kᵀ / √head_dim) · V` per `(sample, head)` block, each
    /// head's result in its own columns (`simd::attention`).
    Attention {
        /// Queries, `[samples · seq, heads · head_dim]`.
        q: ExprId,
        /// Keys, shaped as the queries.
        k: ExprId,
        /// Values, shaped as the queries.
        v: ExprId,
        /// Sequences stacked in the rows.
        samples: usize,
        /// Heads splitting the columns.
        heads: usize,
    },
    /// Same elements, new dims (same volume; a view of a dense operand).
    Reshape {
        /// Operand.
        x: ExprId,
        /// New row count.
        rows: usize,
        /// New column count.
        cols: usize,
    },
}

pub(crate) struct Node {
    pub(crate) op: Op,
    pub(crate) rows: usize,
    pub(crate) cols: usize,
}

/// An expression graph under construction.
///
/// See the crate docs for the building model. Compile with
/// [`crate::Compiler`].
#[derive(Default)]
pub struct Graph {
    pub(crate) nodes: Vec<Node>,
    pub(crate) input_dims: Vec<(usize, usize)>,
    pub(crate) consts: Vec<Tensor>,
    /// Dedup of constants by (storage pointer, rows, cols): `Arc`-backed
    /// snapshots of the same weight re-pushed by unrolled loops collapse
    /// onto one constant slot.
    const_dedup: HashMap<(usize, usize, usize), usize>,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Number of nodes so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if no nodes have been added.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The inferred `(rows, cols)` of a node.
    ///
    /// # Errors
    /// Returns [`GraphError::UnknownExpr`] for a foreign id.
    pub fn dims(&self, id: ExprId) -> Result<(usize, usize), GraphError> {
        let node = self.node(id)?;
        Ok((node.rows, node.cols))
    }

    fn node(&self, id: ExprId) -> Result<&Node, GraphError> {
        self.nodes.get(id.0).ok_or(GraphError::UnknownExpr {
            id: id.0,
            nodes: self.nodes.len(),
        })
    }

    fn push(&mut self, op: Op, rows: usize, cols: usize) -> ExprId {
        self.nodes.push(Node { op, rows, cols });
        ExprId(self.nodes.len() - 1)
    }

    /// Declares the next runtime input with the given dims.
    pub fn input(&mut self, rows: usize, cols: usize) -> ExprId {
        let index = self.input_dims.len();
        self.input_dims.push((rows, cols));
        self.push(Op::Input { index }, rows, cols)
    }

    /// Adopts a tensor as a compile-time constant (typically an `O(1)`
    /// weight snapshot from `Param::value`). Rank-1 tensors become single
    /// rows; re-pushing a tensor that shares storage with an existing
    /// constant returns the existing node's shape info under a fresh id.
    ///
    /// # Errors
    /// Returns [`GraphError::BadConstant`] for rank > 2 tensors.
    pub fn constant(&mut self, t: Tensor) -> Result<ExprId, GraphError> {
        let (rows, cols) = match t.shape().dims() {
            [] => (1, 1),
            [n] => (1, *n),
            [r, c] => (*r, *c),
            other => {
                return Err(GraphError::BadConstant {
                    dims: other.to_vec(),
                })
            }
        };
        let key = (t.as_slice().as_ptr() as usize, rows, cols);
        let index = match self.const_dedup.get(&key) {
            Some(&i) => i,
            None => {
                let i = self.consts.len();
                self.consts.push(t);
                self.const_dedup.insert(key, i);
                i
            }
        };
        Ok(self.push(Op::Constant { index }, rows, cols))
    }

    /// `op(a) · op(b)` with per-operand transposes.
    ///
    /// # Errors
    /// Returns [`GraphError::ShapeMismatch`] if the inner dims differ.
    pub fn matmul(&mut self, a: ExprId, b: ExprId, spec: MatmulSpec) -> Result<ExprId, GraphError> {
        let (ar, ac) = self.dims(a)?;
        let (br, bc) = self.dims(b)?;
        let (m, k) = if spec.trans_a { (ac, ar) } else { (ar, ac) };
        let (k2, n) = if spec.trans_b { (bc, br) } else { (br, bc) };
        if k != k2 {
            return Err(GraphError::ShapeMismatch {
                op: "matmul",
                lhs: (ar, ac),
                rhs: (br, bc),
            });
        }
        Ok(self.push(Op::Matmul { a, b, spec }, m, n))
    }

    /// Elementwise named unary op.
    ///
    /// # Errors
    /// Returns [`GraphError::UnknownExpr`] for a foreign id.
    pub fn unary(&mut self, x: ExprId, op: UnaryOp) -> Result<ExprId, GraphError> {
        let (rows, cols) = self.dims(x)?;
        Ok(self.push(Op::Unary { x, op }, rows, cols))
    }

    /// Elementwise named binary op over same-shape operands.
    ///
    /// # Errors
    /// Returns [`GraphError::ShapeMismatch`] if shapes differ.
    pub fn binary(&mut self, a: ExprId, b: ExprId, op: BinaryOp) -> Result<ExprId, GraphError> {
        let lhs = self.dims(a)?;
        let rhs = self.dims(b)?;
        if lhs != rhs {
            return Err(GraphError::ShapeMismatch {
                op: "binary",
                lhs,
                rhs,
            });
        }
        Ok(self.push(Op::Binary { a, b, op }, lhs.0, lhs.1))
    }

    /// Numerically stable softmax over each row.
    ///
    /// # Errors
    /// Returns [`GraphError::UnknownExpr`] for a foreign id.
    pub fn softmax_rows(&mut self, x: ExprId) -> Result<ExprId, GraphError> {
        let (rows, cols) = self.dims(x)?;
        Ok(self.push(
            Op::Reduce {
                x,
                op: ReduceOp::SoftmaxRows,
            },
            rows,
            cols,
        ))
    }

    /// Mean over consecutive `block_rows`-row blocks.
    ///
    /// # Errors
    /// Returns [`GraphError::InvalidBlocks`] if `block_rows` is zero or
    /// does not divide the operand's rows.
    pub fn mean_row_blocks(&mut self, x: ExprId, block_rows: usize) -> Result<ExprId, GraphError> {
        let (rows, cols) = self.dims(x)?;
        if block_rows == 0 || rows % block_rows != 0 {
            return Err(GraphError::InvalidBlocks { rows, block_rows });
        }
        Ok(self.push(
            Op::Reduce {
                x,
                op: ReduceOp::MeanRowBlocks { block_rows },
            },
            rows / block_rows,
            cols,
        ))
    }

    /// `x + row` broadcast over every row.
    ///
    /// # Errors
    /// Returns [`GraphError::ShapeMismatch`] unless `row` is `1 × cols(x)`.
    pub fn add_row_broadcast(&mut self, x: ExprId, row: ExprId) -> Result<ExprId, GraphError> {
        let (rows, cols) = self.broadcast_dims("add_row_broadcast", x, row)?;
        Ok(self.push(Op::AddRowBroadcast { x, row }, rows, cols))
    }

    fn broadcast_dims(
        &self,
        op: &'static str,
        x: ExprId,
        row: ExprId,
    ) -> Result<(usize, usize), GraphError> {
        let (rows, cols) = self.dims(x)?;
        let rdims = self.dims(row)?;
        if rdims != (1, cols) {
            return Err(GraphError::ShapeMismatch {
                op,
                lhs: (rows, cols),
                rhs: rdims,
            });
        }
        Ok((rows, cols))
    }

    /// Fused layer norm over each row, then `· γ + β` per feature.
    ///
    /// # Errors
    /// Returns [`GraphError::ShapeMismatch`] unless `gamma` and `beta` are
    /// `1 × cols(x)`.
    pub fn layer_norm(
        &mut self,
        x: ExprId,
        gamma: ExprId,
        beta: ExprId,
        eps: f32,
    ) -> Result<ExprId, GraphError> {
        let (rows, cols) = self.broadcast_dims("layer_norm", x, gamma)?;
        self.broadcast_dims("layer_norm", x, beta)?;
        Ok(self.push(
            Op::LayerNorm {
                x,
                gamma,
                beta,
                eps,
            },
            rows,
            cols,
        ))
    }

    /// `x + tile` with the tile vertically repeated `reps` times.
    ///
    /// # Errors
    /// Returns [`GraphError::ShapeMismatch`] unless
    /// `rows(x) = reps · rows(tile)` and the column counts match.
    pub fn add_tile_rows(
        &mut self,
        x: ExprId,
        tile: ExprId,
        reps: usize,
    ) -> Result<ExprId, GraphError> {
        let (rows, cols) = self.dims(x)?;
        let (trows, tcols) = self.dims(tile)?;
        if tcols != cols || reps == 0 || trows * reps != rows {
            return Err(GraphError::ShapeMismatch {
                op: "add_tile_rows",
                lhs: (rows, cols),
                rhs: (trows, tcols),
            });
        }
        Ok(self.push(Op::AddTileRows { x, tile, reps }, rows, cols))
    }

    /// Vertical concatenation of same-width parts.
    ///
    /// # Errors
    /// Returns [`GraphError::EmptyConcat`] for zero parts and
    /// [`GraphError::ShapeMismatch`] on differing column counts.
    pub fn concat_rows(&mut self, parts: &[ExprId]) -> Result<ExprId, GraphError> {
        let first = parts
            .first()
            .ok_or(GraphError::EmptyConcat { op: "concat_rows" })?;
        let (mut rows, cols) = self.dims(*first)?;
        for p in &parts[1..] {
            let (pr, pc) = self.dims(*p)?;
            if pc != cols {
                return Err(GraphError::ShapeMismatch {
                    op: "concat_rows",
                    lhs: (rows, cols),
                    rhs: (pr, pc),
                });
            }
            rows += pr;
        }
        Ok(self.push(
            Op::ConcatRows {
                parts: parts.to_vec(),
            },
            rows,
            cols,
        ))
    }

    /// Horizontal concatenation of same-height parts.
    ///
    /// # Errors
    /// Returns [`GraphError::EmptyConcat`] for zero parts and
    /// [`GraphError::ShapeMismatch`] on differing row counts.
    pub fn concat_cols(&mut self, parts: &[ExprId]) -> Result<ExprId, GraphError> {
        let first = parts
            .first()
            .ok_or(GraphError::EmptyConcat { op: "concat_cols" })?;
        let (rows, mut cols) = self.dims(*first)?;
        for p in &parts[1..] {
            let (pr, pc) = self.dims(*p)?;
            if pr != rows {
                return Err(GraphError::ShapeMismatch {
                    op: "concat_cols",
                    lhs: (rows, cols),
                    rhs: (pr, pc),
                });
            }
            cols += pc;
        }
        Ok(self.push(
            Op::ConcatCols {
                parts: parts.to_vec(),
            },
            rows,
            cols,
        ))
    }

    /// Rows `[start, end)`. Free in a compiled plan: consumers read the
    /// operand's rows in place.
    ///
    /// # Errors
    /// Returns [`GraphError::InvalidSlice`] for an inverted or out-of-range
    /// window.
    pub fn slice_rows(
        &mut self,
        x: ExprId,
        start: usize,
        end: usize,
    ) -> Result<ExprId, GraphError> {
        let (rows, cols) = self.dims(x)?;
        if start > end || end > rows {
            return Err(GraphError::InvalidSlice {
                op: "slice_rows",
                dims: (rows, cols),
                start,
                end,
            });
        }
        Ok(self.push(Op::SliceRows { x, start, end }, end - start, cols))
    }

    /// Columns `[start, end)`. A matmul reads the window in place through
    /// the operand's row stride; any other consumer gets a dense copy.
    ///
    /// # Errors
    /// Returns [`GraphError::InvalidSlice`] for an inverted or out-of-range
    /// window.
    pub fn slice_cols(
        &mut self,
        x: ExprId,
        start: usize,
        end: usize,
    ) -> Result<ExprId, GraphError> {
        let (rows, cols) = self.dims(x)?;
        if start > end || end > cols {
            return Err(GraphError::InvalidSlice {
                op: "slice_cols",
                dims: (rows, cols),
                start,
                end,
            });
        }
        Ok(self.push(Op::SliceCols { x, start, end }, rows, end - start))
    }

    /// Multi-head self-attention of `samples` sequences stacked in the
    /// rows of `q`, `k` and `v`, their columns split into `heads` heads:
    /// every `(sample, head)` block is `softmax(Q·Kᵀ / √head_dim) · V`,
    /// written into that head's columns of the `q`-shaped result.
    ///
    /// # Errors
    /// Returns [`GraphError::ShapeMismatch`] if `k` or `v` is not shaped as
    /// `q`, or if `samples` does not divide its rows or `heads` its
    /// columns (`rhs` is then `(samples, heads)`).
    pub fn attention(
        &mut self,
        [q, k, v]: [ExprId; 3],
        samples: usize,
        heads: usize,
    ) -> Result<ExprId, GraphError> {
        let (rows, cols) = self.dims(q)?;
        for other in [k, v] {
            let dims = self.dims(other)?;
            if dims != (rows, cols) {
                return Err(GraphError::ShapeMismatch {
                    op: "attention",
                    lhs: (rows, cols),
                    rhs: dims,
                });
            }
        }
        if samples == 0 || heads == 0 || rows % samples != 0 || cols % heads != 0 {
            return Err(GraphError::ShapeMismatch {
                op: "attention",
                lhs: (rows, cols),
                rhs: (samples, heads),
            });
        }
        let op = Op::Attention {
            q,
            k,
            v,
            samples,
            heads,
        };
        Ok(self.push(op, rows, cols))
    }

    /// Same elements, new dims.
    ///
    /// # Errors
    /// Returns [`GraphError::ShapeMismatch`] if the volumes differ.
    pub fn reshape(&mut self, x: ExprId, rows: usize, cols: usize) -> Result<ExprId, GraphError> {
        let (xr, xc) = self.dims(x)?;
        if xr * xc != rows * cols {
            return Err(GraphError::ShapeMismatch {
                op: "reshape",
                lhs: (xr, xc),
                rhs: (rows, cols),
            });
        }
        Ok(self.push(Op::Reshape { x, rows, cols }, rows, cols))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_inference_catches_mismatches_at_insertion() {
        let mut g = Graph::new();
        let x = g.input(2, 3);
        let y = g.input(3, 4);
        assert!(g.matmul(x, y, MatmulSpec::NN).is_ok());
        assert!(matches!(
            g.matmul(x, y, MatmulSpec::NT),
            Err(GraphError::ShapeMismatch { op: "matmul", .. })
        ));
        assert!(matches!(
            g.binary(x, y, BinaryOp::Add),
            Err(GraphError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            g.mean_row_blocks(y, 2),
            Err(GraphError::InvalidBlocks { rows: 3, .. })
        ));
        assert!(matches!(
            g.slice_rows(x, 1, 5),
            Err(GraphError::InvalidSlice { .. })
        ));
        assert!(matches!(
            g.concat_rows(&[]),
            Err(GraphError::EmptyConcat { .. })
        ));
    }

    #[test]
    fn transposed_matmul_dims() {
        let mut g = Graph::new();
        let a = g.input(3, 2); // Aᵀ is 2×3
        let b = g.input(5, 3); // Bᵀ is 3×5
        let m = g.matmul(a, b, MatmulSpec::TT).unwrap();
        assert_eq!(g.dims(m).unwrap(), (2, 5));
    }

    #[test]
    fn constants_dedup_on_shared_storage() {
        let mut g = Graph::new();
        let w = Tensor::ones(&[2, 2]);
        let c1 = g.constant(w.clone()).unwrap();
        let c2 = g.constant(w.clone()).unwrap();
        assert_ne!(c1, c2, "each push is a fresh node");
        assert_eq!(
            g.consts.len(),
            1,
            "but storage-identical consts share a slot"
        );
        let other = Tensor::ones(&[2, 2]);
        g.constant(other).unwrap();
        assert_eq!(g.consts.len(), 2);
        assert!(g.constant(Tensor::zeros(&[2, 2, 2])).is_err());
    }

    #[test]
    fn rank1_constants_become_rows() {
        let mut g = Graph::new();
        let c = g.constant(Tensor::ones(&[4])).unwrap();
        assert_eq!(g.dims(c).unwrap(), (1, 4));
        let x = g.input(3, 4);
        assert!(g.add_row_broadcast(x, c).is_ok());
    }

    #[test]
    fn foreign_ids_are_rejected() {
        let mut g = Graph::new();
        let x = g.input(2, 2);
        let mut other = Graph::new();
        let _ = other.input(1, 1);
        let foreign = ExprId(7);
        assert!(matches!(
            g.unary(foreign, UnaryOp::Relu),
            Err(GraphError::UnknownExpr { id: 7, .. })
        ));
        assert!(g.unary(x, UnaryOp::Relu).is_ok());
    }
}
