//go:build amd64 && !purego

#include "textflag.h"

// func cpuidAESNI() bool
// CPUID leaf 1, ECX bit 25.
TEXT ·cpuidAESNI(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	SHRL $25, CX
	ANDL $1, CX
	MOVB CX, ret+0(FP)
	RET

// One FIPS-197 key-expansion step for AES-128. X0 holds round key i-1
// (words w0..w3), X1 the AESKEYGENASSIST result, whose top word is
// SubWord(RotWord(w3)) ^ rcon. The three shifted XORs leave X0 holding the
// prefix XORs w0, w0^w1, w0^w1^w2, w0^w1^w2^w3; XORing the broadcast
// assist word into each gives round key i, stored at (BX).
#define EXPAND(rcon) \
	AESKEYGENASSIST rcon, X0, X1; PSHUFD $0xff, X1, X1; \
	MOVOU X0, X2; PSLLDQ $4, X2; PXOR X2, X0; \
	PSLLDQ $4, X2; PXOR X2, X0; \
	PSLLDQ $4, X2; PXOR X2, X0; \
	PXOR X1, X0; ADDQ $16, BX; MOVUPS X0, (BX)

// func expandKeyAsm(key *[16]byte, xk *[176]byte)
TEXT ·expandKeyAsm(SB), NOSPLIT, $0-16
	MOVQ key+0(FP), AX
	MOVQ xk+8(FP), BX
	MOVUPS (AX), X0
	MOVUPS X0, (BX)
	EXPAND($0x01)
	EXPAND($0x02)
	EXPAND($0x04)
	EXPAND($0x08)
	EXPAND($0x10)
	EXPAND($0x20)
	EXPAND($0x40)
	EXPAND($0x80)
	EXPAND($0x1b)
	EXPAND($0x36)
	RET

// X8 is the next counter block, X9 the per-chunk increment.
#define COUNTER(X) MOVOU X8, X; PADDQ X9, X8

// One AES step on all eight blocks with the round key at off(AX): eight
// independent instructions, so the AES unit's pipeline stays full.
#define ROUND8(OP, off) \
	MOVUPS off(AX), X10; \
	OP X10, X0; OP X10, X1; OP X10, X2; OP X10, X3; \
	OP X10, X4; OP X10, X5; OP X10, X6; OP X10, X7

#define XOROUT(off, X) MOVUPS off(SI), X10; PXOR X10, X; MOVUPS X, off(DI)

// func xorKeyStreamAsm(xk *[176]byte, lo, hi uint64, dst, src []byte)
//
// XORs len(src) bytes of src into dst with the keystream AES_xk(block i),
// where block 0 is the 16 bytes lo‖hi (little-endian) and block i adds i
// to the top 16 bits of hi. dst must hold len(src) bytes and may be src
// itself. The 128-byte frame holds the last group's keystream when fewer
// than eight blocks of input remain.
TEXT ·xorKeyStreamAsm(SB), NOSPLIT, $128-72
	MOVQ xk+0(FP), AX
	MOVQ lo+8(FP), X8
	MOVQ hi+16(FP), X9
	PUNPCKLQDQ X9, X8
	MOVQ dst_base+24(FP), DI
	MOVQ src_base+48(FP), SI
	MOVQ src_len+56(FP), CX
	MOVQ $(1<<48), DX
	MOVQ DX, X9
	PSLLDQ $8, X9

group:
	TESTQ CX, CX
	JZ done
	COUNTER(X0); COUNTER(X1); COUNTER(X2); COUNTER(X3)
	COUNTER(X4); COUNTER(X5); COUNTER(X6); COUNTER(X7)
	ROUND8(PXOR, 0)
	ROUND8(AESENC, 16)
	ROUND8(AESENC, 32)
	ROUND8(AESENC, 48)
	ROUND8(AESENC, 64)
	ROUND8(AESENC, 80)
	ROUND8(AESENC, 96)
	ROUND8(AESENC, 112)
	ROUND8(AESENC, 128)
	ROUND8(AESENC, 144)
	ROUND8(AESENCLAST, 160)
	CMPQ CX, $128
	JB tail
	XOROUT(0, X0); XOROUT(16, X1); XOROUT(32, X2); XOROUT(48, X3)
	XOROUT(64, X4); XOROUT(80, X5); XOROUT(96, X6); XOROUT(112, X7)
	ADDQ $128, SI
	ADDQ $128, DI
	SUBQ $128, CX
	JMP group

tail:
	MOVUPS X0, 0(SP); MOVUPS X1, 16(SP); MOVUPS X2, 32(SP); MOVUPS X3, 48(SP)
	MOVUPS X4, 64(SP); MOVUPS X5, 80(SP); MOVUPS X6, 96(SP); MOVUPS X7, 112(SP)
	XORQ BX, BX

tailblock:
	LEAQ 16(BX), DX
	CMPQ DX, CX
	JA tailbyte
	MOVUPS (SP)(BX*1), X0
	MOVUPS (SI)(BX*1), X10
	PXOR X10, X0
	MOVUPS X0, (DI)(BX*1)
	MOVQ DX, BX
	JMP tailblock

tailbyte:
	CMPQ BX, CX
	JAE done
	MOVB (SP)(BX*1), DX
	XORB (SI)(BX*1), DX
	MOVB DX, (DI)(BX*1)
	INCQ BX
	JMP tailbyte

done:
	RET
