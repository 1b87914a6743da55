//! ETDG node and graph types, structural validation, and the depth/dimension
//! metrics of §4.4.

use ft_affine::{AffineMap, ConstraintSet, IntBox};
use ft_core::{BufferKind, OpKind, Udf};
use ft_tensor::Shape;

use crate::Result;

/// Errors from ETDG construction and validation.
#[derive(Debug, Clone, PartialEq)]
pub enum EtdgError {
    /// Parse-time structural error.
    Parse(String),
    /// A validation rule of §4.4 was violated.
    Invalid(String),
    /// Propagated affine-arithmetic error.
    Affine(String),
}

impl std::fmt::Display for EtdgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EtdgError::Parse(m) => write!(f, "ETDG parse error: {m}"),
            EtdgError::Invalid(m) => write!(f, "ETDG validation error: {m}"),
            EtdgError::Affine(m) => write!(f, "ETDG affine error: {m}"),
        }
    }
}

impl std::error::Error for EtdgError {}

impl From<ft_affine::AffineError> for EtdgError {
    fn from(e: ft_affine::AffineError) -> Self {
        EtdgError::Affine(e.to_string())
    }
}

/// Identifies a buffer node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BufId(pub usize);

/// Identifies a block node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub usize);

/// A buffer node `Λ_m`: an addressable instance of a FractalTensor.
#[derive(Debug, Clone, PartialEq)]
pub struct BufferNode {
    /// Name from the source program.
    pub name: String,
    /// Programmable dimension extents (the index range constraints `Θ`).
    pub dims: Vec<usize>,
    /// Static leaf shape.
    pub leaf_shape: Shape,
    /// Input/output/intermediate role.
    pub kind: BufferKind,
}

impl BufferNode {
    /// Number of programmable dimensions (`m` without the static dims).
    pub fn prog_rank(&self) -> usize {
        self.dims.len()
    }

    /// True when an index vector lies in `dom(Λ_m)`.
    pub fn in_domain(&self, idx: &[i64]) -> bool {
        idx.len() == self.dims.len()
            && idx
                .iter()
                .zip(self.dims.iter())
                .all(|(&i, &d)| i >= 0 && (i as usize) < d)
    }
}

/// One read of a block node: a buffer through an access map, or implicit
/// zeros (a boundary region whose carried state initializer is `0`).
#[derive(Debug, Clone, PartialEq)]
pub enum RegionRead {
    /// Read `buffer[map(t)]`.
    Buffer {
        /// The buffer node read.
        buffer: BufId,
        /// The access map annotation.
        map: AffineMap,
    },
    /// The UDF input is a constant-filled leaf of the given shape
    /// (zeros for `scanl 0`, `-inf` for a running max, ...).
    Fill {
        /// The fill value.
        value: f32,
        /// Leaf shape of the synthesized tensor.
        leaf_shape: Shape,
    },
}

impl RegionRead {
    /// The buffer read, if any.
    pub fn buffer(&self) -> Option<BufId> {
        match self {
            RegionRead::Buffer { buffer, .. } => Some(*buffer),
            RegionRead::Fill { .. } => None,
        }
    }

    /// The access map, if this is a buffer read.
    pub fn map(&self) -> Option<&AffineMap> {
        match self {
            RegionRead::Buffer { map, .. } => Some(map),
            RegionRead::Fill { .. } => None,
        }
    }
}

/// One write of a block node.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionWrite {
    /// The buffer node written.
    pub buffer: BufId,
    /// The access map annotation.
    pub map: AffineMap,
}

/// A block node `Γ_d = (t⃗_d, 𝒫_d, G_T, p⃗_d)`.
///
/// The iteration vector `t⃗_d` ranges over the iteration domain
/// ([`BlockNode::domain`]); each dimension is associated with one array
/// compute operator ([`BlockNode::ops`], the paper's `p⃗_d`); `G_T` is the
/// attached UDF (operation nodes) plus any lowered child blocks.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockNode {
    /// Diagnostic name, e.g. `stacked_rnn/region3`.
    pub name: String,
    /// Operator per iteration dimension, outermost first (`p⃗_d`).
    pub ops: Vec<OpKind>,
    /// Rectangular hull of the iteration domain (extents per dim).
    pub extents: Vec<usize>,
    /// The exact iteration domain `𝒫_d` (may carve boundary regions out of
    /// the hull).
    pub domain: ConstraintSet,
    /// Reads, in UDF input order.
    pub reads: Vec<RegionRead>,
    /// Writes, in UDF output order.
    pub writes: Vec<RegionWrite>,
    /// The attached operation nodes.
    pub udf: Udf,
    /// Lowered child block nodes (filled by the lowering pass).
    pub children: Vec<BlockId>,
    /// Enclosing block, if this is a child.
    pub parent: Option<BlockId>,
    /// Index of the source nest in the original program.
    pub src_nest: usize,
}

impl BlockNode {
    /// Dimensionality `d` of the block node.
    pub fn dims(&self) -> usize {
        self.ops.len()
    }

    /// The iteration dims carrying dependencies (aggregate operators).
    pub fn aggregate_dims(&self) -> Vec<usize> {
        self.ops
            .iter()
            .enumerate()
            .filter(|(_, o)| o.is_aggregate())
            .map(|(i, _)| i)
            .collect()
    }
}

/// The Extended Task Dependence Graph `G = (V, E, 𝒜)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Etdg {
    /// Program name.
    pub name: String,
    /// All buffer nodes.
    pub buffers: Vec<BufferNode>,
    /// All block nodes (roots are those with `parent == None`).
    pub blocks: Vec<BlockNode>,
}

impl Etdg {
    /// The buffer node for an id.
    pub fn buffer(&self, id: BufId) -> &BufferNode {
        &self.buffers[id.0]
    }

    /// The block node for an id.
    pub fn block(&self, id: BlockId) -> &BlockNode {
        &self.blocks[id.0]
    }

    /// Root block ids (no parent), in creation order.
    pub fn roots(&self) -> Vec<BlockId> {
        (0..self.blocks.len())
            .map(BlockId)
            .filter(|&b| self.blocks[b.0].parent.is_none())
            .collect()
    }

    /// The block nodes writing a buffer.
    pub fn writers_of(&self, buf: BufId) -> Vec<BlockId> {
        (0..self.blocks.len())
            .map(BlockId)
            .filter(|&b| self.blocks[b.0].writes.iter().any(|w| w.buffer == buf))
            .collect()
    }

    /// The block nodes reading a buffer.
    pub fn readers_of(&self, buf: BufId) -> Vec<BlockId> {
        (0..self.blocks.len())
            .map(BlockId)
            .filter(|&b| {
                self.blocks[b.0]
                    .reads
                    .iter()
                    .any(|r| r.buffer() == Some(buf))
            })
            .collect()
    }

    /// **Depth of the ETDG** (§4.4): block-node nesting levels along the
    /// longest root-to-leaf path, counting an unlowered UDF with at least
    /// one non-trivial operation node as one extra level (the paper's
    /// Figure 4 running example has depth 2: the region blocks plus the
    /// `y = x@w + s` operation level).
    pub fn depth(&self) -> usize {
        self.roots()
            .into_iter()
            .map(|r| self.block_depth(r))
            .max()
            .unwrap_or(0)
    }

    fn block_depth(&self, id: BlockId) -> usize {
        let b = &self.blocks[id.0];
        // A lowered child *is* its operation node — its control dims already
        // account for the math — so only unlowered root-level blocks get the
        // +1 operation level for their opaque UDF.
        let udf_level =
            usize::from(b.parent.is_none() && b.children.is_empty() && !b.udf.stmts.is_empty());
        let child = b
            .children
            .iter()
            .map(|&c| self.block_depth(c))
            .max()
            .unwrap_or(udf_level);
        1 + child
    }

    /// **Dimension of the ETDG** (§4.4): the sum of block-node dimensions
    /// along the longest root-to-leaf path. Unlowered UDFs contribute their
    /// intrinsic static dimensionality (e.g. a `[1,512] @ [512,512]` matmul
    /// contributes 2: one reduction and one parallel dim).
    pub fn dimension(&self) -> usize {
        self.roots()
            .into_iter()
            .map(|r| self.block_dimension(r))
            .max()
            .unwrap_or(0)
    }

    fn block_dimension(&self, id: BlockId) -> usize {
        let b = &self.blocks[id.0];
        let child = if b.children.is_empty() {
            self.udf_intrinsic_dims(id)
        } else {
            b.children
                .iter()
                .map(|&c| self.block_dimension(c))
                .max()
                .unwrap_or(0)
        };
        b.dims() + child
    }

    /// Maximum intrinsic (static-shape) dimensionality over the UDF's
    /// operation nodes, dropping extent-1 dims.
    fn udf_intrinsic_dims(&self, id: BlockId) -> usize {
        let b = &self.blocks[id.0];
        let in_shapes: Vec<Shape> = b
            .reads
            .iter()
            .map(|r| match r {
                RegionRead::Buffer { buffer, .. } => self.buffer(*buffer).leaf_shape.clone(),
                RegionRead::Fill { leaf_shape, .. } => leaf_shape.clone(),
            })
            .collect();
        let Ok(shapes) = b.udf.infer_shapes(&in_shapes) else {
            return 0;
        };
        let mut max_dims = 0usize;
        for (stmt, out_shape) in b.udf.stmts.iter().zip(shapes.stmts.iter()) {
            let mut dims: usize = out_shape.dims().iter().filter(|&&d| d > 1).count();
            if stmt.op.is_compute_intensive() {
                dims += 1; // The contracted (reduction) dimension.
            }
            max_dims = max_dims.max(dims);
        }
        max_dims
    }

    /// Validates the five structural conditions of §4.4:
    /// nesting sanity, root existence, access-map annotation arity,
    /// single assignment (disjoint writer regions), and acyclicity of the
    /// producer→consumer relation between *different* buffers.
    pub fn validate(&self) -> Result<()> {
        // Condition 2: each node has at most one parent; children agree.
        for (i, b) in self.blocks.iter().enumerate() {
            for &c in &b.children {
                if self.blocks[c.0].parent != Some(BlockId(i)) {
                    return Err(EtdgError::Invalid(format!(
                        "child {} of block {} has inconsistent parent",
                        c.0, i
                    )));
                }
            }
            // Condition 4: access-map arity matches buffer rank and block
            // dims.
            for r in &b.reads {
                if let RegionRead::Buffer { buffer, map } = r {
                    let buf = self.buffer(*buffer);
                    if map.data_dims() != buf.prog_rank() || map.iter_dims() != b.dims() {
                        return Err(EtdgError::Invalid(format!(
                            "block '{}': read map is {}x{}, expected {}x{}",
                            b.name,
                            map.data_dims(),
                            map.iter_dims(),
                            buf.prog_rank(),
                            b.dims()
                        )));
                    }
                }
            }
            for w in &b.writes {
                let buf = self.buffer(w.buffer);
                if w.map.data_dims() != buf.prog_rank() || w.map.iter_dims() != b.dims() {
                    return Err(EtdgError::Invalid(format!(
                        "block '{}': write map is {}x{}, expected {}x{}",
                        b.name,
                        w.map.data_dims(),
                        w.map.iter_dims(),
                        buf.prog_rank(),
                        b.dims()
                    )));
                }
                if self.buffer(w.buffer).kind == BufferKind::Input {
                    return Err(EtdgError::Invalid(format!(
                        "block '{}' writes input buffer '{}'",
                        b.name, buf.name
                    )));
                }
            }
        }
        // Condition 3: at least one root buffer (an input) unless there are
        // no blocks at all.
        if !self.blocks.is_empty() && !self.buffers.iter().any(|b| b.kind == BufferKind::Input) {
            return Err(EtdgError::Invalid("no root (input) buffer node".into()));
        }
        self.check_single_assignment()?;
        self.check_acyclic()?;
        Ok(())
    }

    /// Single assignment: regions writing the same buffer must have
    /// pairwise-disjoint iteration domains when their write maps coincide;
    /// for differing injective maps the images are checked pointwise on a
    /// bounded sample.
    fn check_single_assignment(&self) -> Result<()> {
        for buf in 0..self.buffers.len() {
            let writers = self.writers_of(BufId(buf));
            for (ai, &a) in writers.iter().enumerate() {
                for &b in writers.iter().skip(ai + 1) {
                    let (ba, bb) = (&self.blocks[a.0], &self.blocks[b.0]);
                    let wa = ba
                        .writes
                        .iter()
                        .find(|w| w.buffer == BufId(buf))
                        .expect("writer");
                    let wb = bb
                        .writes
                        .iter()
                        .find(|w| w.buffer == BufId(buf))
                        .expect("writer");
                    if wa.map == wb.map && ba.extents == bb.extents {
                        // Same map: domains must be disjoint.
                        let mut joint = ba.domain.clone();
                        for c in bb.domain.constraints() {
                            joint.push(c.clone());
                        }
                        if !joint.is_empty()? {
                            return Err(EtdgError::Invalid(format!(
                                "blocks '{}' and '{}' write overlapping parts of '{}'",
                                ba.name, bb.name, self.buffers[buf].name
                            )));
                        }
                    } else {
                        // Different maps or hulls: sample-check image overlap.
                        let pa = sample_points(&ba.domain, &ba.extents, 512);
                        let pb = sample_points(&bb.domain, &bb.extents, 512);
                        let imgs_a: std::collections::HashSet<Vec<i64>> =
                            pa.iter().filter_map(|t| wa.map.apply(t).ok()).collect();
                        for t in &pb {
                            if let Ok(img) = wb.map.apply(t) {
                                if imgs_a.contains(&img) {
                                    return Err(EtdgError::Invalid(format!(
                                        "blocks '{}' and '{}' write overlapping parts of '{}'",
                                        ba.name, bb.name, self.buffers[buf].name
                                    )));
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Condition 5: no cycles in the cross-buffer producer→consumer
    /// relation. Blocks originating from the *same nest* (the boundary
    /// regions of one aggregate operator) all read and write distinct,
    /// non-overlapping instances of the same buffer node — the paper's SSA
    /// buffer-instance argument — so edges inside a nest group are governed
    /// by the element-level dependence analysis (`ft-passes`), not by this
    /// graph-level check.
    fn check_acyclic(&self) -> Result<()> {
        let n = self.blocks.len();
        // Edge a -> b when a writes a buffer that b reads, across nests.
        let mut adj = vec![Vec::new(); n];
        for (ai, a) in self.blocks.iter().enumerate() {
            for w in &a.writes {
                for reader in self.readers_of(w.buffer) {
                    if reader.0 != ai && self.blocks[reader.0].src_nest != a.src_nest {
                        adj[ai].push(reader.0);
                    }
                }
            }
        }
        // DFS cycle detection.
        #[derive(Clone, Copy, PartialEq)]
        enum Mark {
            White,
            Grey,
            Black,
        }
        let mut marks = vec![Mark::White; n];
        fn dfs(v: usize, adj: &[Vec<usize>], marks: &mut [Mark]) -> bool {
            marks[v] = Mark::Grey;
            for &w in &adj[v] {
                match marks[w] {
                    Mark::Grey => return false,
                    Mark::White => {
                        if !dfs(w, adj, marks) {
                            return false;
                        }
                    }
                    Mark::Black => {}
                }
            }
            marks[v] = Mark::Black;
            true
        }
        for v in 0..n {
            if marks[v] == Mark::White && !dfs(v, &adj, &mut marks) {
                return Err(EtdgError::Invalid(format!(
                    "cycle through block '{}'",
                    self.blocks[v].name
                )));
            }
        }
        Ok(())
    }

    /// Topological order of root blocks (producers before consumers).
    pub fn topo_order(&self) -> Result<Vec<BlockId>> {
        self.check_acyclic()?;
        let roots = self.roots();
        let mut order: Vec<BlockId> = Vec::new();
        let mut placed = vec![false; self.blocks.len()];
        // Kahn-style: repeatedly place blocks whose cross-buffer producers
        // are all placed.
        loop {
            let mut progressed = false;
            for &r in &roots {
                if placed[r.0] {
                    continue;
                }
                let ready = self.blocks[r.0].reads.iter().all(|read| match read {
                    RegionRead::Buffer { buffer, .. } => self
                        .writers_of(*buffer)
                        .iter()
                        .all(|&w| w == r || placed[w.0] || self.same_nest_group(w, r)),
                    RegionRead::Fill { .. } => true,
                });
                if ready {
                    order.push(r);
                    placed[r.0] = true;
                    progressed = true;
                }
            }
            if order.len() == roots.len() {
                return Ok(order);
            }
            if !progressed {
                // Regions of one nest may mutually read each other's output
                // buffer; fall back to source order for the remainder.
                for &r in &roots {
                    if !placed[r.0] {
                        order.push(r);
                        placed[r.0] = true;
                    }
                }
                return Ok(order);
            }
        }
    }

    fn same_nest_group(&self, a: BlockId, b: BlockId) -> bool {
        self.blocks[a.0].src_nest == self.blocks[b.0].src_nest
    }

    /// A human-readable multi-line description (used by examples/docs).
    pub fn describe(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "ETDG '{}': {} buffer node(s), {} block node(s), depth {}, dimension {}",
            self.name,
            self.buffers.len(),
            self.blocks.len(),
            self.depth(),
            self.dimension()
        );
        for (i, b) in self.buffers.iter().enumerate() {
            let _ = writeln!(
                s,
                "  buffer {} '{}' dims {:?} leaf {:?} ({:?})",
                i,
                b.name,
                b.dims,
                b.leaf_shape.dims(),
                b.kind
            );
        }
        for (i, blk) in self.blocks.iter().enumerate() {
            let ops: Vec<String> = blk.ops.iter().map(|o| o.to_string()).collect();
            let _ = writeln!(
                s,
                "  block {} '{}' p=[{}] extents {:?} reads {} writes {}",
                i,
                blk.name,
                ops.join(", "),
                blk.extents,
                blk.reads.len(),
                blk.writes.len()
            );
        }
        s
    }
}

/// Samples up to `limit` points of a domain (exhaustive when small),
/// striding over the domain's own bounding box — the hull when some
/// constraint couples two variables — so a region confined to a face of
/// the hull is sampled like any other.
pub fn sample_points(domain: &ConstraintSet, extents: &[usize], limit: usize) -> Vec<Vec<i64>> {
    let hull = IntBox::hull(extents);
    let bounds = domain.box_within(&hull).unwrap_or(hull);
    if bounds.is_empty() {
        return Vec::new();
    }
    let sizes: Vec<usize> = bounds
        .lo
        .iter()
        .zip(&bounds.hi)
        .map(|(l, h)| (h - l) as usize)
        .collect();
    let total: usize = sizes.iter().product();
    let mut pts = Vec::new();
    let stride = (total / limit.max(1)).max(1);
    let mut idx = 0usize;
    while idx < total && pts.len() < limit {
        let mut t = vec![0i64; sizes.len()];
        let mut rem = idx;
        for d in (0..sizes.len()).rev() {
            t[d] = bounds.lo[d] + (rem % sizes[d]) as i64;
            rem /= sizes[d];
        }
        if domain.contains(&t) {
            pts.push(t);
        }
        idx += stride;
    }
    pts
}
