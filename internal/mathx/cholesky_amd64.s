#include "textflag.h"

// Sixteen all-ones lanes, then sixteen zero lanes: the four masks read
// from lane 16-r on select the first r of a block's sixteen rows.
DATA tailMask<>+0x00(SB)/8, $0xffffffffffffffff
DATA tailMask<>+0x08(SB)/8, $0xffffffffffffffff
DATA tailMask<>+0x10(SB)/8, $0xffffffffffffffff
DATA tailMask<>+0x18(SB)/8, $0xffffffffffffffff
DATA tailMask<>+0x20(SB)/8, $0xffffffffffffffff
DATA tailMask<>+0x28(SB)/8, $0xffffffffffffffff
DATA tailMask<>+0x30(SB)/8, $0xffffffffffffffff
DATA tailMask<>+0x38(SB)/8, $0xffffffffffffffff
DATA tailMask<>+0x40(SB)/8, $0xffffffffffffffff
DATA tailMask<>+0x48(SB)/8, $0xffffffffffffffff
DATA tailMask<>+0x50(SB)/8, $0xffffffffffffffff
DATA tailMask<>+0x58(SB)/8, $0xffffffffffffffff
DATA tailMask<>+0x60(SB)/8, $0xffffffffffffffff
DATA tailMask<>+0x68(SB)/8, $0xffffffffffffffff
DATA tailMask<>+0x70(SB)/8, $0xffffffffffffffff
DATA tailMask<>+0x78(SB)/8, $0xffffffffffffffff
DATA tailMask<>+0x80(SB)/8, $0
DATA tailMask<>+0x88(SB)/8, $0
DATA tailMask<>+0x90(SB)/8, $0
DATA tailMask<>+0x98(SB)/8, $0
DATA tailMask<>+0xa0(SB)/8, $0
DATA tailMask<>+0xa8(SB)/8, $0
DATA tailMask<>+0xb0(SB)/8, $0
DATA tailMask<>+0xb8(SB)/8, $0
DATA tailMask<>+0xc0(SB)/8, $0
DATA tailMask<>+0xc8(SB)/8, $0
DATA tailMask<>+0xd0(SB)/8, $0
DATA tailMask<>+0xd8(SB)/8, $0
DATA tailMask<>+0xe0(SB)/8, $0
DATA tailMask<>+0xe8(SB)/8, $0
DATA tailMask<>+0xf0(SB)/8, $0
DATA tailMask<>+0xf8(SB)/8, $0
GLOBL tailMask<>(SB), RODATA|NOPTR, $256

// func cpuHasAVX() bool
TEXT ·cpuHasAVX(SB), NOSPLIT, $0-1
	// CPUID leaf 1: ECX bit 27 (OSXSAVE) and bit 28 (AVX).
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no
	// XCR0 bits 1 and 2: the OS saves the XMM and YMM state.
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// func column(lt *float64, n int, col []float64) bool
//
// Register use: SI row 0 of lt; DX the row stride in bytes; CX the rows
// of lt done (j); DI col; BX the rows left; R8 the current block's byte
// offset; R9 the current row of lt; R10 a count; R11, R12 scratch; Y0-Y3
// one block's sixteen running values, Y4 the broadcast lt[k][0], Y5-Y7
// and Y12 products, Y8-Y11 the tail block's masks, Y13 the pivot, X14
// zero.
TEXT ·column(SB), NOSPLIT, $0-41
	MOVQ   lt+0(FP), SI
	MOVQ   n+8(FP), DX
	MOVQ   col_base+16(FP), DI
	MOVQ   col_len+24(FP), BX
	MOVQ   DX, CX
	SUBQ   BX, CX
	SHLQ   $3, DX
	XORQ   R8, R8
	VXORPD X14, X14, X14

next:
	CMPQ    BX, $16
	JLT     tail
	VMOVUPD (DI)(R8*1), Y0
	VMOVUPD 32(DI)(R8*1), Y1
	VMOVUPD 64(DI)(R8*1), Y2
	VMOVUPD 96(DI)(R8*1), Y3
	MOVQ    SI, R9
	MOVQ    CX, R10
	TESTQ   R10, R10
	JZ      fullsummed

fullk:
	VBROADCASTSD (R9), Y4
	VMULPD       (R9)(R8*1), Y4, Y5
	VMULPD       32(R9)(R8*1), Y4, Y6
	VMULPD       64(R9)(R8*1), Y4, Y7
	VMULPD       96(R9)(R8*1), Y4, Y12
	VSUBPD       Y5, Y0, Y0
	VSUBPD       Y6, Y1, Y1
	VSUBPD       Y7, Y2, Y2
	VSUBPD       Y12, Y3, Y3
	ADDQ         DX, R9
	DECQ         R10
	JNZ          fullk

fullsummed:
	TESTQ R8, R8
	JZ    pivot

fulldiv:
	VDIVPD  Y13, Y0, Y0
	VDIVPD  Y13, Y1, Y1
	VDIVPD  Y13, Y2, Y2
	VDIVPD  Y13, Y3, Y3
	VMOVUPD Y0, (DI)(R8*1)
	VMOVUPD Y1, 32(DI)(R8*1)
	VMOVUPD Y2, 64(DI)(R8*1)
	VMOVUPD Y3, 96(DI)(R8*1)
	TESTQ   R8, R8
	JNZ     fullnext
	VMOVSD  X13, (DI)

fullnext:
	ADDQ $128, R8
	SUBQ $16, BX
	JMP  next

tail:
	TESTQ      BX, BX
	JZ         done
	MOVQ       $16, R11
	SUBQ       BX, R11
	SHLQ       $3, R11
	LEAQ       tailMask<>(SB), R12
	ADDQ       R12, R11
	VMOVUPD    (R11), Y8
	VMOVUPD    32(R11), Y9
	VMOVUPD    64(R11), Y10
	VMOVUPD    96(R11), Y11
	VMASKMOVPD (DI)(R8*1), Y8, Y0
	VMASKMOVPD 32(DI)(R8*1), Y9, Y1
	VMASKMOVPD 64(DI)(R8*1), Y10, Y2
	VMASKMOVPD 96(DI)(R8*1), Y11, Y3
	MOVQ       SI, R9
	MOVQ       CX, R10
	TESTQ      R10, R10
	JZ         tailsummed

	// Only the running values of the ceil(r/4) registers that hold rows
	// are updated, and only the last of them needs a masked load: one
	// loop per register count.
	CMPQ BX, $4
	JLE  tailk1
	CMPQ BX, $8
	JLE  tailk2
	CMPQ BX, $12
	JLE  tailk3

tailk4:
	VBROADCASTSD (R9), Y4
	VMASKMOVPD   96(R9)(R8*1), Y11, Y12
	VMULPD       (R9)(R8*1), Y4, Y5
	VMULPD       32(R9)(R8*1), Y4, Y6
	VMULPD       64(R9)(R8*1), Y4, Y7
	VMULPD       Y4, Y12, Y12
	VSUBPD       Y5, Y0, Y0
	VSUBPD       Y6, Y1, Y1
	VSUBPD       Y7, Y2, Y2
	VSUBPD       Y12, Y3, Y3
	ADDQ         DX, R9
	DECQ         R10
	JNZ          tailk4
	JMP          tailsummed

tailk3:
	VBROADCASTSD (R9), Y4
	VMASKMOVPD   64(R9)(R8*1), Y10, Y7
	VMULPD       (R9)(R8*1), Y4, Y5
	VMULPD       32(R9)(R8*1), Y4, Y6
	VMULPD       Y4, Y7, Y7
	VSUBPD       Y5, Y0, Y0
	VSUBPD       Y6, Y1, Y1
	VSUBPD       Y7, Y2, Y2
	ADDQ         DX, R9
	DECQ         R10
	JNZ          tailk3
	JMP          tailsummed

tailk2:
	VBROADCASTSD (R9), Y4
	VMASKMOVPD   32(R9)(R8*1), Y9, Y6
	VMULPD       (R9)(R8*1), Y4, Y5
	VMULPD       Y4, Y6, Y6
	VSUBPD       Y5, Y0, Y0
	VSUBPD       Y6, Y1, Y1
	ADDQ         DX, R9
	DECQ         R10
	JNZ          tailk2
	JMP          tailsummed

tailk1:
	VBROADCASTSD (R9), Y4
	VMASKMOVPD   (R9)(R8*1), Y8, Y5
	VMULPD       Y4, Y5, Y5
	VSUBPD       Y5, Y0, Y0
	ADDQ         DX, R9
	DECQ         R10
	JNZ          tailk1

tailsummed:
	TESTQ R8, R8
	JZ    pivot

taildiv:
	VDIVPD     Y13, Y0, Y0
	VDIVPD     Y13, Y1, Y1
	VDIVPD     Y13, Y2, Y2
	VDIVPD     Y13, Y3, Y3
	VMASKMOVPD Y0, Y8, (DI)(R8*1)
	VMASKMOVPD Y1, Y9, 32(DI)(R8*1)
	VMASKMOVPD Y2, Y10, 64(DI)(R8*1)
	VMASKMOVPD Y3, Y11, 96(DI)(R8*1)
	TESTQ      R8, R8
	JNZ        done
	VMOVSD     X13, (DI)

done:
	VZEROUPPER
	MOVB $1, ret+40(FP)
	RET

	// The first block holds the diagonal in its lane 0: the pivot must be
	// positive (and not NaN); its square root is stored at col[0] and
	// broadcast, and the block's divide overwrites col[0] with d/√d, so
	// the block's store is followed by √d's again.
pivot:
	VUCOMISD     X14, X0
	JLS          fail
	VSQRTSD      X0, X0, X13
	VMOVSD       X13, (DI)
	VBROADCASTSD (DI), Y13
	CMPQ         BX, $16
	JGE          fulldiv
	JMP          taildiv

fail:
	VZEROUPPER
	MOVB $0, ret+40(FP)
	RET

// The 4×4 transpose of the rows Y0-Y3 into the columns Y0-Y3, through
// Y4-Y7.
#define TRANSPOSE4 \
	VUNPCKLPD  Y1, Y0, Y4; \
	VUNPCKHPD  Y1, Y0, Y5; \
	VUNPCKLPD  Y3, Y2, Y6; \
	VUNPCKHPD  Y3, Y2, Y7; \
	VPERM2F128 $0x20, Y6, Y4, Y0; \
	VPERM2F128 $0x20, Y7, Y5, Y1; \
	VPERM2F128 $0x31, Y6, Y4, Y2; \
	VPERM2F128 $0x31, Y7, Y5, Y3

// func transposeLower(l, a *float64, n int)
//
// For every 4×4 tile of the n×n a whose rows i..i+3 end at or before
// row n and whose columns j..j+3 start at or before column i, l's rows
// j..j+3 get the tile's columns at column i. Register use: DI l, SI a,
// DX the row stride in bytes, R12 three of them, R13 n, R8 i, R9 a's
// row i, R10 j, R11 and AX the tile's corners in a and l.
TEXT ·transposeLower(SB), NOSPLIT, $0-24
	MOVQ l+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ n+16(FP), R13
	MOVQ R13, DX
	SHLQ $3, DX
	LEAQ (DX)(DX*2), R12
	XORQ R8, R8

tlrows:
	LEAQ  4(R8), AX
	CMPQ  AX, R13
	JGT   tldone
	MOVQ  R8, R9
	IMULQ DX, R9
	ADDQ  SI, R9
	XORQ  R10, R10

tltiles:
	LEAQ    (R9)(R10*8), R11
	VMOVUPD (R11), Y0
	VMOVUPD (R11)(DX*1), Y1
	VMOVUPD (R11)(DX*2), Y2
	VMOVUPD (R11)(R12*1), Y3
	TRANSPOSE4
	MOVQ    R10, AX
	IMULQ   DX, AX
	ADDQ    DI, AX
	LEAQ    (AX)(R8*8), AX
	VMOVUPD Y0, (AX)
	VMOVUPD Y1, (AX)(DX*1)
	VMOVUPD Y2, (AX)(DX*2)
	VMOVUPD Y3, (AX)(R12*1)
	ADDQ    $4, R10
	CMPQ    R10, R8
	JLE     tltiles
	ADDQ    $4, R8
	JMP     tlrows

tldone:
	VZEROUPPER
	RET

// func packTransposed(dst, l *float64, n int)
//
// For every 4×4 tile of the factor whose rows i..i+3 end at or before
// row n and whose columns j..j+3 start at or before column i, read
// transposed from l's rows j..j+3 at column i, the packed rows i..i+3 of
// dst get the tile's rows at column j. A diagonal tile's rows run past
// their ends into the next rows' first entries, so each row of tiles
// stores its diagonal tile first and the tile at column 0 mends them.
// Register use: DI dst, SI l, DX the row stride in bytes, R12 three of
// them, R13 n, R8 i, R10 j, AX BX CX R9 packed rows i..i+3, R11 the
// tile's corner in l.
TEXT ·packTransposed(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ l+8(FP), SI
	MOVQ n+16(FP), R13
	MOVQ R13, DX
	SHLQ $3, DX
	LEAQ (DX)(DX*2), R12
	XORQ R8, R8
	MOVQ DI, AX

ptrows:
	LEAQ 4(R8), R11
	CMPQ R11, R13
	JGT  ptdone

	// AX is packed row i; rows i+1..i+3 follow it by i+1, i+2, i+3
	// entries.
	LEAQ 8(AX)(R8*8), BX
	LEAQ 16(BX)(R8*8), CX
	LEAQ 24(CX)(R8*8), R9
	MOVQ R8, R10

pttiles:
	MOVQ    R10, R11
	IMULQ   DX, R11
	ADDQ    SI, R11
	LEAQ    (R11)(R8*8), R11
	VMOVUPD (R11), Y0
	VMOVUPD (R11)(DX*1), Y1
	VMOVUPD (R11)(DX*2), Y2
	VMOVUPD (R11)(R12*1), Y3
	TRANSPOSE4
	VMOVUPD Y0, (AX)(R10*8)
	VMOVUPD Y1, (BX)(R10*8)
	VMOVUPD Y2, (CX)(R10*8)
	VMOVUPD Y3, (R9)(R10*8)
	CMPQ    R10, R8
	JNE     ptnext
	XORQ    R10, R10
	CMPQ    R10, R8
	JL      pttiles
	JMP     ptrowdone

ptnext:
	ADDQ $4, R10
	CMPQ R10, R8
	JL   pttiles

ptrowdone:
	// The next row of tiles starts 4 rows on: row i+4 follows row i+3
	// by i+4 entries.
	LEAQ 32(R9)(R8*8), AX
	ADDQ $4, R8
	JMP  ptrows

ptdone:
	VZEROUPPER
	RET
