//! Structural program signatures.
//!
//! [`structural_bytes`] serializes everything that determines a program's
//! compiled schedule — buffer dims, leaf shapes and kinds, nest operator
//! vectors and extents, access specifications (including carried-init
//! boundary rules), and the UDF's SSA statement structure — while
//! deliberately ignoring every debug *name* (program, buffer, nest, UDF).
//! Two structurally identical programs that differ only in naming therefore
//! produce the same byte stream, which is exactly the key the serving
//! layer's compiled-plan cache needs: repeated submissions of the same
//! workload hit one cache entry regardless of how callers labeled their
//! buffers. Every variable-length field is prefixed with its length,
//! every enum with a discriminant tag, and every integer is a
//! self-delimiting LEB128 varint, so distinct structures cannot produce
//! the same bytes by concatenation ambiguity — byte equality *is*
//! structural equality. Varints keep the stream a few hundred bytes (the
//! values are small extents, ids and offsets): every request carries its
//! family's bytes from admission to completion, so their size is paid per
//! request, in hashing and in an allocation that crosses threads.
//!
//! [`program_signature`] is a 128-bit FNV-1a over those bytes: a
//! self-contained hash so signatures are stable across processes and
//! toolchains (no `DefaultHasher` seeding concerns). FNV is fast but not
//! collision-resistant, and a serving process accepts arbitrary programs,
//! so a hash alone must never be treated as proof of structural identity:
//! the plan cache (`ft_passes::PolyCache`) stores the bytes behind each
//! key and verifies byte equality on every hit, and the serving layer
//! compares them before putting two requests in one launch, so a colliding
//! key (accidental or adversarial) degrades to an extra compile, not to
//! serving the wrong plan.
//!
//! The cache key is the *family* identity ([`family_split`]): the
//! structural bytes with the polymorphic outer extent masked out when the
//! program has one ([`poly_split`]), the plain bytes — a family of exactly
//! one extent — when it does not.

use crate::access::{AccessSpec, AxisExpr};
use crate::expr::{OpCode, Operand, Udf};
use crate::poly::{analyze_outer, OuterInfo};
use crate::program::{BufferKind, CarriedInit, OpKind, Program, Read, Write};

/// A structural program signature (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProgramSig(pub u128);

/// A shape-insensitive structural key: [`ProgramSig`] with the polymorphic
/// outer extent masked out of the hashed bytes. Every instance of one
/// program family — same structure, any outer extent — shares one key;
/// the concrete extent travels separately as the shape tuple
/// ([`PolySplit::outer_extent`]) and is resolved at launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StructKey(pub u128);

impl std::fmt::Display for StructKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// A program's family identity: its shape-insensitive part plus the shape
/// tuple, produced by [`family_split`] (total) or [`poly_split`] (only when
/// the outer axis is polymorphic).
#[derive(Debug, Clone)]
pub struct PolySplit {
    /// Hash of [`bytes`](Self::bytes) — the plan cache key. A candidate,
    /// never proof: compare [`bytes`](Self::bytes) before trusting it.
    pub key: StructKey,
    /// Masked structural bytes: like [`structural_bytes`] but with every
    /// nest's outer extent and every batched buffer's outer dimension
    /// replaced by a sentinel (nothing is masked in a one-extent family).
    /// Byte equality is family identity.
    pub bytes: Vec<u8>,
    /// The shape tuple: the one designated symbolic extent, concrete in
    /// this instance. Everything else about the shape stays baked into
    /// [`bytes`](Self::bytes).
    pub outer_extent: usize,
    /// Buffer classification backing the mask (and ragged batching). All
    /// `shared` in a one-extent family.
    pub info: OuterInfo,
    /// False for a one-extent family: the program has no polymorphic outer
    /// axis, so the family exists only at
    /// [`outer_extent`](Self::outer_extent).
    pub polymorphic: bool,
}

/// Splits a program's signature into a shape-insensitive [`StructKey`]
/// plus the concrete outer extent, when the program has a polymorphic
/// outer axis ([`analyze_outer`]). Returns `None` for programs whose
/// outer axis carries dependences — [`family_split`] gives those a
/// one-extent family.
pub fn poly_split(p: &Program) -> Option<PolySplit> {
    analyze_outer(p).map(|info| split_with(p, Some(info)))
}

/// The family every program belongs to: [`poly_split`] when the outer axis
/// is polymorphic, otherwise a **one-extent family** — identity is the
/// unmasked [`structural_bytes`], every buffer is shared, and the only
/// extent is the program's own (its first nest's outer extent).
pub fn family_split(p: &Program) -> PolySplit {
    split_with(p, analyze_outer(p))
}

fn split_with(p: &Program, outer: Option<OuterInfo>) -> PolySplit {
    let bytes = bytes_with_mask(p, outer.as_ref());
    let polymorphic = outer.is_some();
    let info = outer.unwrap_or_else(|| OuterInfo {
        batch_extent: p
            .nests
            .first()
            .and_then(|n| n.extents.first().copied())
            .unwrap_or(1),
        batched: vec![false; p.buffers.len()],
    });
    PolySplit {
        key: StructKey(fnv128(&bytes)),
        bytes,
        outer_extent: info.batch_extent,
        info,
        polymorphic,
    }
}

/// The canonical structural byte stream builder (see the module docs).
struct SigBytes(Vec<u8>);

impl SigBytes {
    fn new() -> Self {
        SigBytes(Vec::with_capacity(256))
    }

    /// LEB128: seven bits per byte, high bit set on all but the last.
    fn u64(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.0.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.0.push(v as u8);
    }

    /// Zigzag, so small negative offsets stay one byte.
    fn i64(&mut self, v: i64) {
        self.u64(((v << 1) ^ (v >> 63)) as u64);
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn f32_bits(&mut self, v: f32) {
        self.u64(v.to_bits() as u64);
    }

    /// Enum discriminant / structural separator tag.
    fn tag(&mut self, t: u8) {
        self.0.push(t);
    }
}

/// 128-bit FNV-1a over a byte slice.
fn fnv128(bytes: &[u8]) -> u128 {
    const OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= b as u128;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// The canonical name-insensitive serialization of a program's structure.
///
/// Byte equality of two programs' structural bytes is exactly "these two
/// programs compile to the same schedule" (see the module docs).
pub fn structural_bytes(p: &Program) -> Vec<u8> {
    bytes_with_mask(p, None)
}

/// Sentinel serialized in place of masked extents. No real extent can be
/// `u64::MAX` (such a buffer could not exist in memory), and the plan
/// cache byte-verifies hits anyway, so an accidental collision degrades
/// to an extra compile, never to serving the wrong family.
const POLY_SENTINEL: u64 = u64::MAX;

/// [`structural_bytes`] with an optional polymorphic-outer-axis mask: when
/// `mask` is set, each nest's outer extent and each batched buffer's outer
/// dimension serialize as [`POLY_SENTINEL`], so all instances of one
/// family produce identical bytes.
fn bytes_with_mask(p: &Program, mask: Option<&OuterInfo>) -> Vec<u8> {
    let mut h = SigBytes::new();
    h.usize(p.buffers.len());
    for (bi, b) in p.buffers.iter().enumerate() {
        h.tag(match b.kind {
            BufferKind::Input => 1,
            BufferKind::Output => 2,
            BufferKind::Intermediate => 3,
        });
        let masked = mask.is_some_and(|m| m.batched.get(bi).copied().unwrap_or(false));
        h.usize(b.dims.len());
        for (di, &d) in b.dims.iter().enumerate() {
            if masked && di == 0 {
                h.u64(POLY_SENTINEL);
            } else {
                h.usize(d);
            }
        }
        let leaf = b.leaf_shape.dims();
        h.usize(leaf.len());
        for &d in leaf {
            h.usize(d);
        }
    }
    h.usize(p.nests.len());
    for n in &p.nests {
        h.usize(n.ops.len());
        for op in &n.ops {
            h.tag(op_kind_tag(*op));
        }
        for (ei, &e) in n.extents.iter().enumerate() {
            if mask.is_some() && ei == 0 {
                h.u64(POLY_SENTINEL);
            } else {
                h.usize(e);
            }
        }
        h.usize(n.reads.len());
        for r in &n.reads {
            hash_read(&mut h, r);
        }
        h.usize(n.writes.len());
        for w in &n.writes {
            hash_write(&mut h, w);
        }
        hash_udf(&mut h, &n.udf);
    }
    h.0
}

/// Computes the structural signature of a program: a 128-bit FNV-1a over
/// [`structural_bytes`] (name-insensitive; see the module docs for what is
/// and is not hashed, and for why signature equality alone must not be
/// trusted as structural identity).
pub fn program_signature(p: &Program) -> ProgramSig {
    ProgramSig(fnv128(&structural_bytes(p)))
}

fn op_kind_tag(op: OpKind) -> u8 {
    match op {
        OpKind::Map => 1,
        OpKind::ScanL => 2,
        OpKind::ScanR => 3,
        OpKind::FoldL => 4,
        OpKind::FoldR => 5,
        OpKind::Reduce => 6,
    }
}

fn hash_read(h: &mut SigBytes, r: &Read) {
    h.tag(10);
    h.usize(r.buffer.0);
    hash_access(h, &r.access);
    match &r.init {
        None => h.tag(0),
        Some(CarriedInit::Zero) => h.tag(1),
        Some(CarriedInit::Fill(v)) => {
            h.tag(2);
            h.f32_bits(*v);
        }
        Some(CarriedInit::Buffer(b, spec)) => {
            h.tag(3);
            h.usize(b.0);
            hash_access(h, spec);
        }
    }
}

fn hash_write(h: &mut SigBytes, w: &Write) {
    h.tag(11);
    h.usize(w.buffer.0);
    hash_access(h, &w.access);
}

fn hash_access(h: &mut SigBytes, a: &AccessSpec) {
    h.usize(a.axes.len());
    for axis in &a.axes {
        hash_axis(h, axis);
    }
}

fn hash_axis(h: &mut SigBytes, a: &AxisExpr) {
    h.usize(a.terms.len());
    for &(dim, coeff) in &a.terms {
        h.usize(dim);
        h.i64(coeff);
    }
    h.i64(a.offset);
}

fn hash_udf(h: &mut SigBytes, u: &Udf) {
    h.usize(u.num_inputs);
    h.usize(u.stmts.len());
    for s in &u.stmts {
        hash_opcode(h, &s.op);
        h.usize(s.args.len());
        for a in &s.args {
            hash_operand(h, a);
        }
    }
    h.usize(u.outputs.len());
    for o in &u.outputs {
        hash_operand(h, o);
    }
}

fn hash_operand(h: &mut SigBytes, o: &Operand) {
    match o {
        Operand::In(k) => {
            h.tag(1);
            h.usize(*k);
        }
        Operand::Tmp(k) => {
            h.tag(2);
            h.usize(*k);
        }
    }
}

fn hash_opcode(h: &mut SigBytes, op: &OpCode) {
    match op {
        OpCode::MatMul => h.tag(1),
        OpCode::MatMulT => h.tag(2),
        OpCode::Add => h.tag(3),
        OpCode::Sub => h.tag(4),
        OpCode::Mul => h.tag(5),
        OpCode::Div => h.tag(6),
        OpCode::Max => h.tag(7),
        OpCode::AddColBc => h.tag(8),
        OpCode::SubColBc => h.tag(9),
        OpCode::MulColBc => h.tag(10),
        OpCode::DivColBc => h.tag(11),
        OpCode::Scale(v) => {
            h.tag(12);
            h.f32_bits(*v);
        }
        OpCode::AddScalar(v) => {
            h.tag(13);
            h.f32_bits(*v);
        }
        OpCode::Tanh => h.tag(14),
        OpCode::Sigmoid => h.tag(15),
        OpCode::Exp => h.tag(16),
        OpCode::Neg => h.tag(17),
        OpCode::Relu => h.tag(18),
        OpCode::RowMax => h.tag(19),
        OpCode::RowSum => h.tag(20),
        OpCode::Softmax => h.tag(21),
        OpCode::Concat(a) => {
            h.tag(22);
            h.usize(*a);
        }
        OpCode::Slice { axis, start, end } => {
            h.tag(23);
            h.usize(*axis);
            h.usize(*start);
            h.usize(*end);
        }
        OpCode::Transpose => h.tag(24),
        OpCode::Id => h.tag(25),
        OpCode::Silu => h.tag(26),
        OpCode::FusedMatMul { transb, epi } => {
            h.tag(27);
            h.tag(u8::from(*transb));
            h.usize(epi.len());
            for op in epi {
                hash_epiop(h, *op);
            }
        }
        OpCode::EwChain(ops) => {
            h.tag(28);
            h.usize(ops.len());
            for op in ops {
                hash_epiop(h, *op);
            }
        }
    }
}

fn hash_epiop(h: &mut SigBytes, op: ft_simd::EpiOp) {
    h.tag(op.tag());
    if let Some(c) = op.payload() {
        h.f32_bits(c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::stacked_rnn_program;

    /// Renames every name-bearing field without touching structure.
    fn renamed(mut p: Program, suffix: &str) -> Program {
        p.name = format!("{}_{suffix}", p.name);
        for b in &mut p.buffers {
            b.name = format!("{}_{suffix}", b.name);
        }
        for n in &mut p.nests {
            n.name = format!("{}_{suffix}", n.name);
            n.udf.name = format!("{}_{suffix}", n.udf.name);
        }
        p
    }

    #[test]
    fn integers_are_self_delimiting_varints() {
        let mut h = SigBytes::new();
        for v in [127, 128, POLY_SENTINEL] {
            h.u64(v);
        }
        h.i64(-1);
        assert_eq!(h.0[..3], [0x7f, 0x80, 0x01]);
        assert_eq!((h.0.len(), h.0.last()), (1 + 2 + 10 + 1, Some(&0x01)));
    }

    #[test]
    fn signature_is_deterministic() {
        let a = program_signature(&stacked_rnn_program(2, 3, 4, 8));
        let b = program_signature(&stacked_rnn_program(2, 3, 4, 8));
        assert_eq!(a, b);
    }

    #[test]
    fn signature_ignores_names() {
        let p = stacked_rnn_program(2, 3, 4, 8);
        let q = renamed(p.clone(), "debug_copy");
        assert_eq!(program_signature(&p), program_signature(&q));
        assert_eq!(structural_bytes(&p), structural_bytes(&q));
    }

    #[test]
    fn signature_distinguishes_extents_and_shapes() {
        let base = program_signature(&stacked_rnn_program(2, 3, 4, 8));
        assert_ne!(base, program_signature(&stacked_rnn_program(3, 3, 4, 8)));
        assert_ne!(base, program_signature(&stacked_rnn_program(2, 4, 4, 8)));
        assert_ne!(base, program_signature(&stacked_rnn_program(2, 3, 5, 8)));
        assert_ne!(base, program_signature(&stacked_rnn_program(2, 3, 4, 16)));
    }

    #[test]
    fn signature_distinguishes_access_offsets() {
        let mut p = stacked_rnn_program(2, 3, 4, 8);
        let base = program_signature(&p);
        p.nests[0].reads[2].access.axes[2].offset = -2;
        assert_ne!(base, program_signature(&p));
    }

    #[test]
    fn signature_distinguishes_udf_structure() {
        let mut p = stacked_rnn_program(2, 3, 4, 8);
        let base = program_signature(&p);
        p.nests[0].udf.stmts[0].op = OpCode::MatMulT;
        assert_ne!(base, program_signature(&p));
    }

    #[test]
    fn structural_bytes_differ_when_structure_differs() {
        let p = stacked_rnn_program(2, 3, 4, 8);
        let mut q = p.clone();
        q.nests[0].udf.stmts[0].op = OpCode::MatMulT;
        assert_ne!(structural_bytes(&p), structural_bytes(&q));
    }

    #[test]
    fn poly_split_shares_a_key_across_outer_extents() {
        let splits: Vec<_> = [1, 2, 7, 64]
            .iter()
            .map(|&n| poly_split(&stacked_rnn_program(n, 3, 4, 8)).expect("poly-eligible"))
            .collect();
        for s in &splits[1..] {
            assert_eq!(s.key, splits[0].key);
            assert_eq!(s.bytes, splits[0].bytes);
        }
        assert_eq!(splits[2].outer_extent, 7);
        // The exact-shape signatures still differ: the split, not the
        // signature, carries the polymorphism.
        assert_ne!(
            program_signature(&stacked_rnn_program(1, 3, 4, 8)),
            program_signature(&stacked_rnn_program(2, 3, 4, 8))
        );
    }

    #[test]
    fn poly_split_distinguishes_non_outer_structure() {
        let base = poly_split(&stacked_rnn_program(2, 3, 4, 8)).unwrap();
        for other in [
            stacked_rnn_program(2, 4, 4, 8),  // depth
            stacked_rnn_program(2, 3, 5, 8),  // inner length
            stacked_rnn_program(2, 3, 4, 16), // hidden width
        ] {
            let s = poly_split(&other).unwrap();
            assert_ne!(s.key, base.key);
            assert_ne!(s.bytes, base.bytes);
        }
    }

    #[test]
    fn outer_dependences_make_a_one_extent_family() {
        let outer_scan = |n| {
            let mut p = stacked_rnn_program(n, 3, 4, 8);
            for nest in &mut p.nests {
                nest.ops[0] = OpKind::ScanL;
            }
            p
        };
        let p = outer_scan(2);
        assert!(poly_split(&p).is_none());
        let s = family_split(&p);
        assert!(!s.polymorphic);
        assert_eq!(s.outer_extent, 2);
        assert_eq!(s.bytes, structural_bytes(&p));
        assert_eq!(s.key.0, program_signature(&p).0);
        assert!(s.info.batched.iter().all(|&b| !b));
        // Nothing is masked, so another extent is another family.
        assert_ne!(family_split(&outer_scan(3)).bytes, s.bytes);
        // With a polymorphic axis the two constructors agree.
        let q = stacked_rnn_program(2, 3, 4, 8);
        let (a, b) = (family_split(&q), poly_split(&q).unwrap());
        assert!(a.polymorphic);
        assert_eq!((a.key, a.bytes), (b.key, b.bytes));
    }
}
