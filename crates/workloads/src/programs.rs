//! The seven SPECint95 stand-in kernels.
//!
//! Each function returns `(assembly source, generated data segments)`.
//! All random data uses fixed seeds, so every build of a benchmark is
//! bit-identical. Every kernel accumulates a checksum in `r20` so tests
//! can verify architectural equivalence across simulators.

use vpir_testkit::Rng;

use crate::Scale;

type Data = Vec<(u64, Vec<u8>)>;

/// Base address of generated input data.
const INPUT: u64 = 0x30_0000;
/// Base address of auxiliary tables.
const AUX: u64 = 0x38_0000;
/// Base address of scratch/output regions.
const SCRATCH: u64 = 0x40_0000;

/// `go`-like: a board evaluator with data-dependent, hard-to-predict
/// branches (Table 2 reports 75.8% gshare accuracy for `go`).
pub fn go(scale: Scale) -> (String, Data) {
    let mut rng = Rng::new(0x60_63);
    // A 19x19 board of {0,1,2} plus a border ring, as bytes.
    let dim = 21usize;
    let board: Vec<u8> = (0..dim * dim)
        .map(|_| match rng.gen_range(0..10) {
            0..=3 => 0u8, // empty
            4..=6 => 1,   // black
            _ => 2,       // white
        })
        .collect();
    let passes = 12 * scale.outer;
    let src = format!(
        "
        .entry main
main:   li   r6, {passes}
        li   r20, 1
pass:   la   r7, {INPUT}
        addi r7, r7, {off}          # skip border row+col
        li   r8, {points}
        lbu  r9, 0(r7)              # software pipeline: current stone
pt:     lbu  r28, 1(r7)             # fetch NEXT point's stone
        # coordinate bookkeeping: depends on the point index, so none of
        # it is ever redundant (go is full of such arithmetic)
        srl  r21, r8, 4
        xor  r22, r21, r8
        add  r23, r22, r7
        sll  r24, r22, 1
        xor  r23, r23, r24
        and  r21, r23, r22
        add  r20, r20, r21
        beq  r9, r0, empty
        # stones walk the direction-offset table (4 hot entries);
        # r9 was loaded a full iteration ago, so the chain is testable.
        andi r25, r9, 3
        sll  r25, r25, 2
        la   r26, {AUX}
        add  r26, r26, r25
        lw   r27, 0(r26)
        add  r20, r20, r27
        li   r10, 1
        beq  r9, r10, black
        # white stone: count white neighbours
        lbu  r11, 1(r7)
        li   r12, 2
        bne  r11, r12, wdone
        addi r20, r20, 3
wdone:  lbu  r11, {dim}(r7)
        bne  r11, r12, next
        addi r20, r20, 5
        b    next
black:  lbu  r11, -1(r7)
        beq  r11, r0, bliberty
        lbu  r11, -{dim}(r7)
        beq  r11, r0, bliberty
        addi r20, r20, 11
        b    next
bliberty:
        addi r20, r20, 7
        b    next
empty:  lbu  r11, 1(r7)
        lbu  r12, {dim}(r7)
        add  r13, r11, r12
        slti r14, r13, 2
        beq  r14, r0, next
        addi r20, r20, 1
next:   move r9, r28                # pipeline rotate
        addi r7, r7, 1
        addi r8, r8, -1
        bne  r8, r0, pt
        # Mutate a handful of cells with an LCG so later passes differ.
        la   r15, {INPUT}
        li   r16, 28
        mul  r17, r20, r20
        li   r18, 1103515245
mut:    mul  r17, r17, r18
        addi r17, r17, 12345
        srl  r19, r17, 16
        andi r19, r19, 0x1ff
        sltiu r21, r19, {cells}
        beq  r21, r0, skipmut
        add  r22, r15, r19
        andi r23, r17, 3
        slti r24, r23, 3
        beq  r24, r0, skipmut
        sb   r23, 0(r22)
skipmut:
        addi r16, r16, -1
        bne  r16, r0, mut
        addi r6, r6, -1
        bne  r6, r0, pass
        halt
",
        off = dim + 1,
        points = 19 * 19,
        cells = dim * dim,
    );
    let dirs: Vec<u8> = [1i32, -1, 21, -21]
        .iter()
        .flat_map(|d| (*d as u32).to_le_bytes())
        .collect();
    (src, vec![(INPUT, board), (AUX, dirs)])
}

/// `m88ksim`-like: an interpreter executing a small virtual program over
/// and over — the decode/dispatch work for each virtual instruction is
/// highly repetitive (Table 3 reports 48.5% result reuse for m88ksim).
pub fn m88ksim(scale: Scale) -> (String, Data) {
    // Virtual ISA: word = op<<24 | d<<16 | s1<<8 | s2.
    // ops: 0=halt 1=li(d, s1) 2=add 3=sub 4=and 5=bnz(s1, target=d) 6=addi(d,s1,imm=s2)
    let vop = |op: u32, d: u32, s1: u32, s2: u32| (op << 24) | (d << 16) | (s1 << 8) | s2;
    // The virtual loop body is four instructions, so each interpreter
    // stage sees at most four distinct virtual instructions — within the
    // RB's per-set capacity, like m88ksim's own hot dispatch loop.
    let vprog: Vec<u32> = vec![
        vop(1, 0, 60, 0), // v0 = 60 (loop counter)
        // loop body (index 1):
        vop(2, 1, 1, 2),   // v1 += v2
        vop(4, 4, 1, 2),   // v4 = v1 & v2
        vop(6, 0, 0, 255), // v0 -= 1  (addi with imm=255 treated as -1)
        vop(5, 1, 0, 0),   // bnz v0 -> index 1
        vop(0, 0, 0, 0),   // vhalt
    ];
    let bytes: Vec<u8> = vprog.iter().flat_map(|w| w.to_le_bytes()).collect();
    let runs = 6 * scale.outer;
    let src = format!(
        "
        .entry main
main:   li   r6, {runs}
        li   r20, 1
run:    la   r7, {INPUT}        # vpc base
        li   r8, 0              # vpc
        la   r9, {SCRATCH}      # vreg file (8 words)
        # seed the virtual machine: the accumulator differs per run, so
        # interpreter *control* repeats while the interpreted data flows
        # fresh — m88ksim's signature.
        sw   r6, 4(r9)          # v1 = run number
        li   r10, 3
        sw   r10, 8(r9)         # v2 = 3
        sw   r0, 12(r9)
        sw   r0, 16(r9)
step:   sll  r12, r8, 2
        add  r12, r12, r7
        lw   r13, 0(r12)        # fetch virtual instruction
        srl  r14, r13, 24       # op
        srl  r15, r13, 16
        andi r15, r15, 0xff     # d
        srl  r16, r13, 8
        andi r16, r16, 0xff     # s1
        andi r17, r13, 0xff     # s2
        # dispatch chain
        beq  r14, r0, vhalt
        li   r18, 1
        beq  r14, r18, vli
        li   r18, 2
        beq  r14, r18, vadd
        li   r18, 3
        beq  r14, r18, vsub
        li   r18, 4
        beq  r14, r18, vand
        li   r18, 5
        beq  r14, r18, vbnz
        jal  vaddi              # op 6
        b    vnext
vli:    jal  do_li
        b    vnext
vadd:   jal  do_add
        b    vnext
vsub:   jal  do_sub
        b    vnext
vand:   jal  do_and
        b    vnext
vbnz:   sll  r18, r16, 2
        add  r18, r18, r9
        lw   r19, 0(r18)
        beq  r19, r0, vnext
        move r8, r15            # taken: vpc = d
        b    step
vnext:  addi r8, r8, 1
        b    step
vhalt:  # fold v1 into the checksum
        lw   r19, 4(r9)
        add  r20, r20, r19
        addi r6, r6, -1
        bne  r6, r0, run
        halt

        # --- handlers: args in r15(d) r16(s1) r17(s2), vregs at r9 ---
do_li:  sll  r21, r15, 2
        add  r21, r21, r9
        sw   r16, 0(r21)
        jr   ra
do_add: sll  r21, r16, 2
        add  r21, r21, r9
        lw   r22, 0(r21)
        sll  r21, r17, 2
        add  r21, r21, r9
        lw   r23, 0(r21)
        add  r24, r22, r23
        # condition-flag computation on the fresh result (m88k handlers
        # update processor state on every operation); the flag branch is
        # data-dependent, like m88ksim's own condition checks
        slt  r2, r24, r0
        sltu r3, r24, r22
        andi r4, r24, 4
        beq  r4, r0, flagz
        addi r20, r20, 5
        b    flagj
flagz:  xor  r5, r24, r22
        add  r20, r20, r5
flagj:  or   r2, r2, r3
        sll  r3, r2, 1
        add  r20, r20, r3
        sll  r21, r15, 2
        add  r21, r21, r9
        sw   r24, 0(r21)
        jr   ra
do_sub: sll  r21, r16, 2
        add  r21, r21, r9
        lw   r22, 0(r21)
        sll  r21, r17, 2
        add  r21, r21, r9
        lw   r23, 0(r21)
        sub  r24, r22, r23
        sll  r21, r15, 2
        add  r21, r21, r9
        sw   r24, 0(r21)
        jr   ra
vaddi:  sll  r21, r16, 2
        add  r21, r21, r9
        lw   r22, 0(r21)
        # sign-extend imm8
        slti r23, r17, 128
        bne  r23, r0, pos
        addi r22, r22, -256
pos:    add  r22, r22, r17
        slt  r2, r22, r0
        sltu r3, r22, r17
        xor  r4, r22, r3
        srl  r5, r4, 5
        add  r20, r20, r5
        sll  r21, r15, 2
        add  r21, r21, r9
        sw   r22, 0(r21)
        jr   ra
do_and: sll  r21, r16, 2
        add  r21, r21, r9
        lw   r22, 0(r21)
        sll  r21, r17, 2
        add  r21, r21, r9
        lw   r23, 0(r21)
        and  r24, r22, r23
        slt  r2, r24, r0
        xor  r3, r24, r23
        srl  r4, r3, 7
        add  r5, r4, r2
        xor  r3, r3, r5
        add  r20, r20, r5
        sll  r21, r15, 2
        add  r21, r21, r9
        sw   r24, 0(r21)
        jr   ra
",
    );
    (src, vec![(INPUT, bytes)])
}

/// `ijpeg`-like: 8x8 integer block transforms over a quantised image
/// (predictable counted loops, multiply-heavy, moderate redundancy).
pub fn ijpeg(scale: Scale) -> (String, Data) {
    let mut rng = Rng::new(0x134E6);
    let blocks = 24usize;
    // Pixels quantised to 16 levels: plenty of repeated values.
    let image: Vec<u8> = (0..blocks * 64)
        .map(|_| rng.gen_range(0..16u8) * 16)
        .collect();
    let passes = 10 * scale.outer;
    let quant: Vec<u8> = [181u32, 160, 140, 181, 120, 181, 100, 90]
        .iter()
        .flat_map(|q| q.to_le_bytes())
        .collect();
    let src = format!(
        "
        .entry main
main:   li   r6, {passes}
        li   r20, 1
pass:   la   r7, {INPUT}
        la   r8, {SCRATCH}
        li   r9, {blocks}
blk:    li   r10, 8             # row counter
        li   r27, 0             # row index within block
row:    # quantisation-table entry for this row (8 hot addresses)
        sll  r28, r27, 2
        la   r29, 0x390000
        add  r28, r28, r29
        lw   r30, 0(r28)
        lbu  r11, 0(r7)
        lbu  r12, 1(r7)
        lbu  r13, 2(r7)
        lbu  r14, 3(r7)
        add  r15, r11, r14      # butterfly
        sub  r16, r11, r14
        add  r17, r12, r13
        sub  r18, r12, r13
        add  r19, r15, r17      # s0
        sub  r21, r15, r17      # s2
        mul  r23, r16, r30      # scale by the row's quant factor
        sra  r23, r23, 8
        add  r23, r23, r18      # s1
        sw   r19, 0(r8)
        sw   r23, 4(r8)
        sw   r21, 8(r8)
        add  r20, r20, r19
        xor  r20, r20, r23
        # quantised refinement: operands masked to a handful of values
        andi r24, r19, 0x30
        andi r25, r23, 0x30
        mul  r26, r24, r25
        sra  r26, r26, 4
        add  r20, r20, r26
        addi r7, r7, 8
        addi r8, r8, 12
        addi r27, r27, 1
        andi r27, r27, 3
        addi r10, r10, -1
        bne  r10, r0, row
        addi r9, r9, -1
        bne  r9, r0, blk
        addi r6, r6, -1
        bne  r6, r0, pass
        halt
",
    );
    (src, vec![(INPUT, image), (0x39_0000, quant)])
}

/// `perl`-like: interned-token hashing with table probes. The token
/// stream points into a small vocabulary (Zipf-skewed), so the unrolled
/// hash chain and the probe loads see a narrow, hot set of operand
/// values per static instruction — moderate redundancy, like perl.
pub fn perl(scale: Scale) -> (String, Data) {
    let mut rng = Rng::new(0x9E41);
    let vocab = [
        "my",
        "sub",
        "local",
        "return",
        "print",
        "while",
        "foreach",
        "scalar",
        "push",
        "shift",
        "defined",
        "length",
        "keys",
        "values",
        "chomp",
        "split",
        "unless",
        "else",
        "elsif",
        "last",
        "next",
        "redo",
        "bless",
        "ref",
        "wantarray",
        "join",
        "map",
        "grep",
        "sort",
        "reverse",
        "substr",
        "index",
    ];
    // Interned vocabulary: each word padded to 8 bytes at VOCAB + 8*i.
    let mut words = Vec::new();
    for w in vocab {
        let mut bytes = w.as_bytes().to_vec();
        bytes.resize(8, 0);
        words.extend_from_slice(&bytes);
    }
    // Zipf-flavoured stream of word *indices* (u32), skewed to the front.
    let ntokens = 300usize;
    let mut stream = Vec::new();
    for _ in 0..ntokens {
        let r: f64 = rng.gen_f64();
        let idx = ((vocab.len() as f64) * r * r) as u32;
        stream.extend_from_slice(&idx.min(vocab.len() as u32 - 1).to_le_bytes());
    }
    let passes = 4 * scale.outer;
    let cnt = ntokens - 1;
    // Unrolled 8-character hash: each position is a distinct static
    // instruction whose operands repeat across occurrences of a word.
    let mut hash_chain = String::new();
    for i in 0..8 {
        hash_chain.push_str(&format!(
            "        lbu  r11, {i}(r9)\n\
                     mul  r10, r10, r12\n\
                     add  r10, r10, r11\n"
        ));
    }
    let src = format!(
        "
        .entry main
main:   li   r6, {passes}
        li   r20, 1
pass:   la   r7, {INPUT}        # token-index cursor
        li   r8, {cnt}
        lw   r13, 0(r7)         # software pipeline: first word index
        addi r7, r7, 4
tok:    lw   r27, 0(r7)         # fetch NEXT word index (used next iter)
        sll  r9, r13, 3
        la   r14, {AUX}
        add  r9, r9, r14        # interned word address
        li   r10, 0
        li   r12, 31
{hash_chain}
        sll  r10, r10, 34         # keep the hash within the stored
        srl  r10, r10, 34         # width (low 30 bits)
        andi r15, r10, 0x7f     # bucket
        sll  r15, r15, 3
        la   r16, {SCRATCH}
        add  r16, r16, r15
probe:  lw   r17, 0(r16)        # stored hash
        beq  r17, r0, install
        beq  r17, r10, found
        addi r16, r16, 8        # linear probe
        b    probe
install:
        sw   r10, 0(r16)
        li   r18, 1
        sw   r18, 4(r16)
        add  r20, r20, r10
        b    next
found:  lw   r18, 4(r16)
        addi r18, r18, 1
        sw   r18, 4(r16)
        add  r20, r20, r18
next:   move r13, r27           # pipeline rotate
        addi r7, r7, 4
        addi r8, r8, -1
        bne  r8, r0, tok
        addi r6, r6, -1
        bne  r6, r0, pass
        halt
",
    );
    (src, vec![(INPUT, stream), (AUX, words)])
}

/// `vortex`-like: query traversal of an object store through a two-level
/// index — the root and inner index objects are touched by every query
/// (hot, reusable loads) while leaf objects are cold, and per-kind
/// validators run behind calls (very predictable branches, call-heavy).
pub fn vortex(scale: Scale) -> (String, Data) {
    let mut rng = Rng::new(0xB0F);
    // Layout: 4 index nodes of 4 children each at INPUT (16 bytes per
    // node: child addresses), then 16 leaf objects of 24 bytes at AUX:
    // [id, kind, a, b, pad, pad].
    let nleaves = 16usize;
    let mut index = Vec::new();
    for node in 0..4usize {
        for child in 0..4usize {
            let leaf = (AUX + ((node * 4 + child) as u64) * 24) as u32;
            index.extend_from_slice(&leaf.to_le_bytes());
        }
    }
    let mut leaves = Vec::new();
    for i in 0..nleaves {
        let id = i as u32 + 1;
        let kind: u32 = if rng.gen_range(0..100) < 80 {
            0
        } else {
            1 + rng.gen_range(0..2u32)
        };
        let a: u32 = rng.gen_range(0..64);
        let b: u32 = rng.gen_range(0..64);
        for w in [id, kind, a, b, 0, 0] {
            leaves.extend_from_slice(&w.to_le_bytes());
        }
    }
    // Query stream: skewed towards a few hot leaves.
    let nqueries = 48usize;
    let queries: Vec<u8> = (0..nqueries)
        .flat_map(|_| {
            let r: f64 = rng.gen_f64();
            let q = ((nleaves as f64) * r * r) as u32;
            q.min(nleaves as u32 - 1).to_le_bytes()
        })
        .collect();
    let passes = 20 * scale.outer;
    let src = format!(
        "
        .entry main
main:   li   r6, {passes}
        li   r20, 1
pass:   la   r7, {SCRATCH}      # query cursor
        li   r8, {cnt}
        lw   r13, 0(r7)         # software pipeline: first query
        addi r7, r7, 4
query:  lw   r27, 0(r7)         # fetch NEXT query id
        # two-level index walk: node = q >> 2, child = q & 3
        srl  r9, r13, 2
        sll  r9, r9, 4
        la   r10, {INPUT}
        add  r9, r9, r10        # index-node address (4 hot values)
        andi r11, r13, 3
        sll  r11, r11, 2
        add  r11, r11, r9
        lw   r12, 0(r11)        # leaf address
        lw   r14, 4(r12)        # leaf kind
        beq  r14, r0, k0
        li   r15, 1
        beq  r14, r15, k1
        jal  check2
        b    adv
k0:     jal  check0
        b    adv
k1:     jal  check1
adv:    move r13, r27           # pipeline rotate
        addi r7, r7, 4
        addi r8, r8, -1
        bne  r8, r0, query
        addi r6, r6, -1
        bne  r6, r0, pass
        halt

# validators: leaf address in r12
check0: lw   r16, 8(r12)        # a
        lw   r17, 12(r12)       # b
        add  r18, r16, r17
        add  r20, r20, r18
        jr   ra
check1: lw   r16, 8(r12)
        lw   r17, 12(r12)
        slt  r18, r16, r17
        beq  r18, r0, c1b
        add  r20, r20, r16
        jr   ra
c1b:    add  r20, r20, r17
        jr   ra
check2: lw   r16, 0(r12)        # id
        andi r17, r16, 7
        add  r20, r20, r17
        jr   ra
",
        cnt = nqueries - 1,
    );
    (src, vec![(INPUT, index), (AUX, leaves), (SCRATCH, queries)])
}

/// `gcc`-like: evaluation of linearised expression trees with a
/// node-kind switch and an explicit value stack (compilers walk
/// linearised IR exactly like this). The post-order sequence is
/// precomputed per tree, so the hot loop's node pointer is prefetched a
/// full iteration ahead — giving the long producer distances real gcc
/// loop bodies have.
pub fn gcc(scale: Scale) -> (String, Data) {
    let mut rng = Rng::new(0x6CC);
    // Nodes: 16 bytes: [kind:u32, left:u32(index), right:u32, value:u32]
    // kinds: 0=const 1=add 2=mul 3=neg. Build a forest of small trees.
    let mut nodes: Vec<[u32; 4]> = Vec::new();
    let mut postorder: Vec<u32> = Vec::new();
    fn build(rng: &mut Rng, nodes: &mut Vec<[u32; 4]>, depth: u32) -> u32 {
        if depth == 0 || rng.gen_range(0..100) < 25 {
            nodes.push([0, 0, 0, rng.gen_range(1..50)]);
            return (nodes.len() - 1) as u32;
        }
        let kind = match rng.gen_range(0..10) {
            0..=4 => 1u32,
            5..=7 => 2,
            _ => 3,
        };
        let l = build(rng, nodes, depth - 1);
        let r = if kind == 3 {
            0
        } else {
            build(rng, nodes, depth - 1)
        };
        nodes.push([kind, l, r, 0]);
        (nodes.len() - 1) as u32
    }
    fn linearise(nodes: &[[u32; 4]], idx: u32, out: &mut Vec<u32>) {
        let n = nodes[idx as usize];
        if n[0] != 0 {
            linearise(nodes, n[1], out);
            if n[0] != 3 {
                linearise(nodes, n[2], out);
            }
        }
        out.push(idx);
    }
    for _ in 0..12 {
        let root = build(&mut rng, &mut nodes, 5);
        linearise(&nodes, root, &mut postorder);
        postorder.push(u32::MAX); // end-of-tree marker
    }
    postorder.push(u32::MAX - 1); // end-of-forest marker
    let node_bytes: Vec<u8> = nodes
        .iter()
        .flat_map(|n| n.iter().flat_map(|w| w.to_le_bytes()))
        .collect();
    let seq_bytes: Vec<u8> = postorder.iter().flat_map(|r| r.to_le_bytes()).collect();
    let passes = 20 * scale.outer;
    let src = format!(
        "
        .entry main
main:   li   r6, {passes}
        li   r20, 1
        la   r26, {INPUT}       # node array
        la   r28, 0x480000      # value-stack base
pass:   la   r7, {AUX}          # post-order cursor
        move r29, r28           # value-stack pointer
        lw   r13, 0(r7)         # software pipeline: first node index
        addi r7, r7, 4
walk:   lw   r27, 0(r7)         # fetch NEXT node index
        li   r9, -1
        beq  r13, r9, treedone
        li   r9, -2
        beq  r13, r9, endpass
        # decode the node (r13 was fetched a full iteration ago)
        sll  r9, r13, 4
        add  r9, r9, r26
        lw   r11, 0(r9)         # kind
        beq  r11, r0, kconst
        li   r12, 1
        beq  r11, r12, kadd
        li   r12, 2
        beq  r11, r12, kmul
        jal  do_neg
        b    next
kconst: jal  do_const
        b    next
kadd:   jal  do_add
        b    next
kmul:   jal  do_mul
next:   move r13, r27           # pipeline rotate
        addi r7, r7, 4
        b    walk
treedone:
        # pop the tree's value into the checksum
        addi r29, r29, -8
        ld   r10, 0(r29)
        add  r20, r20, r10
        move r13, r27
        addi r7, r7, 4
        b    walk
endpass:
        addi r6, r6, -1
        bne  r6, r0, pass
        halt

# stack-machine handlers: node ptr in r9, stack ptr in r29
do_const:
        lw   r10, 12(r9)
        sd   r10, 0(r29)
        addi r29, r29, 8
        jr   ra
do_add: addi r29, r29, -16
        ld   r10, 0(r29)
        ld   r11, 8(r29)
        add  r12, r10, r11
        sd   r12, 0(r29)
        addi r29, r29, 8
        jr   ra
do_mul: addi r29, r29, -16
        ld   r10, 0(r29)
        ld   r11, 8(r29)
        mul  r12, r10, r11
        sd   r12, 0(r29)
        addi r29, r29, 8
        jr   ra
do_neg: addi r29, r29, -8
        ld   r10, 0(r29)
        sub  r12, r0, r10
        sd   r12, 0(r29)
        addi r29, r29, 8
        jr   ra
",
    );
    (src, vec![(INPUT, node_bytes), (AUX, seq_bytes)])
}

/// `compress`-like: LZW-flavoured hashing over a byte stream, software
/// pipelined (the next character is fetched while the previous one is
/// hashed and probed, as optimised compress does). Hash-table *addresses*
/// recur constantly — and hit counts are written back on every hit, so
/// the buffered load values go stale — while stored codes keep changing:
/// the paper's signature for `compress` (65% address reuse, 16% result
/// reuse).
pub fn compress(scale: Scale) -> (String, Data) {
    let mut rng = Rng::new(0xC03D_0011);
    let n = 1600usize;
    // Run-heavy, text-like stream: long runs of a few hot characters make
    // a handful of (prefix, char) pairs dominate the probes.
    let mut input: Vec<u8> = Vec::with_capacity(n);
    while input.len() < n {
        let c = match rng.gen_range(0..100) {
            0..=74 => rng.gen_range(b'a'..=b'c'),
            75..=91 => rng.gen_range(b'd'..=b'h'),
            _ => b' ',
        };
        let run = rng.gen_range(3..24);
        for _ in 0..run {
            input.push(c);
        }
    }
    input.truncate(n);
    let passes = 3 * scale.outer;
    let src = format!(
        "
        .entry main
main:   li   r6, {passes}
        li   r20, 1
        li   r26, 256           # next code
        li   r24, 0             # output-buffer write offset
        li   r12, 2654435761    # hash multiplier
        la   r28, {AUX}         # hash table base
        li   r31, 0x20000       # offset of the per-slot use counters
        la   r29, {SCRATCH}     # output buffer base
        la   r30, 0x480000      # character histogram base
pass:   la   r7, {INPUT}
        li   r8, {count}
        lbu  r9, 0(r7)          # prefix = first char
        lbu  r10, 1(r7)         # software pipeline: current char
        li   r23, 0             # pipelined histogram bucket
        addi r7, r7, 2
byte:   lbu  r25, 0(r7)         # fetch NEXT char (used next iteration)
        # --- hash the (prefix, char) pair from the PREVIOUS fetch
        sll  r11, r9, 8
        or   r11, r11, r10
        mul  r13, r11, r12
        srl  r13, r13, 18
        andi r13, r13, 0x3fff
        sll  r13, r13, 3
        add  r14, r28, r13
        lw   r15, 0(r14)        # probe: stored key
        beq  r15, r11, hit
        # miss: install (key, code) and emit the prefix code
        sw   r11, 0(r14)
        sw   r26, 4(r14)
        addi r26, r26, 1
        add  r22, r29, r24
        sw   r9, 0(r22)
        addi r24, r24, 4
        andi r24, r24, 0xfff
        add  r20, r20, r9
        move r9, r10
        b    rotate
hit:    lw   r16, 4(r14)        # code becomes the new prefix
        # bump the slot's use count: the table is written on every hit,
        # so the probe loads' buffered *values* go stale while their
        # *addresses* stay reusable.
        add  r22, r14, r31
        lw   r17, 0(r22)
        addi r17, r17, 1
        sw   r17, 0(r22)
        andi r9, r16, 0xfff
        xor  r20, r20, r16
rotate:
        # --- character-class histogram (a handful of ultra-hot counters
        # that are re-written on every access: pure address reuse). The
        # bucket r23 was computed a full iteration ago, so it is settled
        # by the time the reuse test runs.
        add  r21, r23, r30
        lw   r22, 0(r21)
        addi r22, r22, 1
        sw   r22, 0(r21)
        srl  r23, r10, 4        # bucket for the next iteration
        sll  r23, r23, 2
        move r10, r25           # pipeline rotate
        addi r7, r7, 1
        addi r8, r8, -1
        bne  r8, r0, byte
        add  r20, r20, r26
        addi r6, r6, -1
        bne  r6, r0, pass
        halt
",
        count = n - 2,
    );
    (src, vec![(INPUT, input)])
}
