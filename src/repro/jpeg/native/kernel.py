"""Build and load the native entropy-codec kernel (cffi ABI mode).

The kernel is a single translation unit of portable C99 compiled on
first use with the host C compiler::

    cc -O2 -shared -fPIC p3codec-<digest>.c -o p3codec-<digest>.so

and opened with ``cffi``'s ABI-mode ``dlopen`` — no setuptools, no
extension-module machinery, no new dependencies.  Artifacts are cached
under the repository's ``build/`` directory keyed by a SHA-256 of the C
source, so a source change recompiles and a warm tree just dlopens.

The native engine requires the kernel.  The build is tried once per
process; a missing compiler, a failed compile or a failed ``dlopen`` is
recorded, :func:`status` reports it, and :func:`require_kernel` raises
:class:`NativeUnavailableError` carrying it.  Importing this module
never fails.

Each C decode loop reads a destuffed segment through a zero-padded
16-bit peek, fails with EndOfData when a consume passes the segment
end, and checks the scalar decoder's error conditions in its order, so
both engines reach the same verdict on every stream.

Each C encode loop covers one of the five scan kinds (baseline, DC
first, DC refinement, AC first, AC refinement) and runs twice, like
libjpeg's two-pass ``optimize_coding``: a counting pass that fills
per-table symbol histograms, then a writing pass that codes the scan
through one shared bit writer (:mod:`repro.jpeg.native.encode`).
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from typing import Any

#: Result codes shared between the C kernel and the Python drivers.
OK = 0
ERR_HUFF = 1
ERR_EOD = 2
ERR_DC_RANGE = 3
ERR_AC_BOUNDS = 4
ERR_REFINE_SIZE = 5
ERR_OVERFLOW = 6
ERR_COEF_RANGE = 7

#: ABI declarations handed to ``ffi.cdef`` (must match the C source).
CDEF = """
int64_t p3_destuff(uint8_t *data, int64_t n, uint8_t *out);
int p3_decode_baseline(uint8_t *data, int64_t nbits, int64_t *pos,
                       int32_t **dc_luts, int32_t **ac_luts,
                       int32_t **views, uint8_t *slots, int64_t *flats,
                       int64_t nblocks, int32_t *prev_dc);
int p3_decode_dc_first(uint8_t *data, int64_t nbits, int64_t *pos,
                       int32_t **dc_luts, int32_t **views,
                       uint8_t *slots, int64_t *flats, int64_t nblocks,
                       int shift, int32_t *prev_dc);
int p3_decode_dc_refine(uint8_t *data, int64_t nbits, int64_t *pos,
                        int32_t **views, uint8_t *slots, int64_t *flats,
                        int64_t nblocks, int32_t bit_value);
int p3_decode_ac_first(uint8_t *data, int64_t nbits, int64_t *pos,
                       int32_t *ac_lut, int64_t *flats, int64_t nblocks,
                       int ss, int se, int shift, int32_t *view);
int p3_decode_ac_refine(uint8_t *data, int64_t nbits, int64_t *pos,
                        int32_t *ac_lut, int64_t *flats, int64_t nblocks,
                        int ss, int se, int32_t positive, int32_t *view);
typedef struct {
    int64_t *freq;
    const uint64_t *code;
    const int64_t *length;
} P3Table;
typedef struct {
    uint8_t *out;
    int64_t size;
    uint64_t acc;
    int nacc;
    int missing;
} P3Writer;
int p3_encode_baseline(P3Writer *w, int32_t **views, uint8_t *slots,
                       int64_t *flats, int64_t total_mcus,
                       int blocks_per_mcu, int64_t restart_interval,
                       P3Table **dc, P3Table **ac);
int p3_encode_dc_first(P3Writer *w, int32_t **views, uint8_t *slots,
                       int64_t *flats, int64_t nblocks, int al,
                       P3Table **dc);
int p3_encode_dc_refine(P3Writer *w, int32_t **views, uint8_t *slots,
                        int64_t *flats, int64_t nblocks, int al);
int p3_encode_ac_first(P3Writer *w, int32_t *view, int64_t nblocks,
                       int ss, int se, int al, P3Table **ac);
int p3_encode_ac_refine(P3Writer *w, int32_t *view, int64_t nblocks,
                        int ss, int se, int al, P3Table **ac);
"""

#: The kernel itself.  The decode loops run over destuffed bytes; the
#: caller guarantees at least 8 zero bytes of padding after the data so
#: the 16-bit peek can always read 4 bytes without a bounds check.  The
#: encode loops write into a buffer the caller sizes for the worst case.
SOURCE = r"""
#include <stdint.h>

#define P3_OK 0
#define P3_ERR_HUFF 1
#define P3_ERR_EOD 2
#define P3_ERR_DC_RANGE 3
#define P3_ERR_AC_BOUNDS 4
#define P3_ERR_REFINE_SIZE 5
#define P3_ERR_OVERFLOW 6
#define P3_ERR_COEF_RANGE 7

/* Next 16 bits at a bit cursor, zero-padded past the end (the Python
 * side allocates the buffer with >= 8 trailing zero bytes). */
static uint32_t p3_peek16(const uint8_t *d, int64_t pos) {
    const uint8_t *b = d + (pos >> 3);
    uint32_t w = ((uint32_t)b[0] << 24) | ((uint32_t)b[1] << 16)
               | ((uint32_t)b[2] << 8) | (uint32_t)b[3];
    return (w >> (16 - ((int)pos & 7))) & 0xFFFFu;
}

/* Read n bits MSB-first; fails with EndOfData when the cursor would
 * pass nbits.  Accumulates modulo 2^64 — callers only need the value
 * exactly for n <= 22; larger n only occurs on corrupt streams whose
 * outcome is decided by the DC range check, not the value. */
static int p3_read_bits_u64(const uint8_t *d, int64_t nbits, int64_t *pos,
                            int n, uint64_t *out) {
    if (*pos + n > nbits) return P3_ERR_EOD;
    uint64_t v = 0;
    int64_t p = *pos;
    while (n > 16) {
        v = (v << 16) | p3_peek16(d, p);
        p += 16;
        n -= 16;
    }
    if (n > 0) {
        v = (v << n) | (p3_peek16(d, p) >> (16 - n));
        p += n;
    }
    *pos = p;
    *out = v;
    return P3_OK;
}

/* One flat-LUT Huffman probe: entry = (code_length << 8) | symbol,
 * 0 = no code with this prefix. */
static int p3_huff_symbol(const uint8_t *d, int64_t nbits, int64_t *pos,
                          const int32_t *lut, int *symbol) {
    int32_t entry = lut[p3_peek16(d, *pos)];
    if (!entry) return P3_ERR_HUFF;
    int len = (int)(entry >> 8);
    if (*pos + len > nbits) return P3_ERR_EOD;
    *pos += len;
    *symbol = (int)(entry & 0xFF);
    return P3_OK;
}

/* DC category + magnitude bits -> new predictor value, with the
 * +-2^20 corruption guard.  A category >= 23 cannot satisfy the guard
 * (|diff| >= 2^22 - 1 against a predictor bounded by 2^20), so it
 * fails the same way without needing exact wide arithmetic. */
static int p3_decode_dc_value(const uint8_t *d, int64_t nbits, int64_t *pos,
                              const int32_t *lut, int32_t *prev,
                              int64_t *dc_out) {
    int category, err;
    if ((err = p3_huff_symbol(d, nbits, pos, lut, &category))) return err;
    int64_t diff = 0;
    if (category) {
        uint64_t bits;
        if ((err = p3_read_bits_u64(d, nbits, pos, category, &bits)))
            return err;
        if (category >= 23) return P3_ERR_DC_RANGE;
        if (bits >> (category - 1)) diff = (int64_t)bits;
        else diff = (int64_t)bits - (((int64_t)1) << category) + 1;
    }
    int64_t dc = (int64_t)(*prev) + diff;
    if (dc < -(1 << 20) || dc > (1 << 20)) return P3_ERR_DC_RANGE;
    *prev = (int32_t)dc;
    *dc_out = dc;
    return P3_OK;
}

int64_t p3_destuff(uint8_t *data, int64_t n, uint8_t *out) {
    int64_t o = 0;
    for (int64_t i = 0; i < n; i++) {
        uint8_t b = data[i];
        out[o++] = b;
        if (b == 0xFF && i + 1 < n && data[i + 1] == 0x00) i++;
    }
    return o;
}

int p3_decode_baseline(uint8_t *data, int64_t nbits, int64_t *pos,
                       int32_t **dc_luts, int32_t **ac_luts,
                       int32_t **views, uint8_t *slots, int64_t *flats,
                       int64_t nblocks, int32_t *prev_dc) {
    for (int64_t i = 0; i < nblocks; i++) {
        int slot = slots[i];
        int32_t *block = views[slot] + flats[i] * 64;
        int64_t dc;
        int err = p3_decode_dc_value(data, nbits, pos, dc_luts[slot],
                                     &prev_dc[slot], &dc);
        if (err) return err;
        block[0] = (int32_t)dc;
        const int32_t *ac_lut = ac_luts[slot];
        int k = 1;
        while (k <= 63) {
            int symbol;
            if ((err = p3_huff_symbol(data, nbits, pos, ac_lut, &symbol)))
                return err;
            int size = symbol & 0x0F;
            if (size == 0) {
                if (symbol == 0xF0) { k += 16; continue; }  /* ZRL */
                break;                                      /* EOB */
            }
            k += symbol >> 4;
            if (k > 63) return P3_ERR_AC_BOUNDS;
            uint64_t bits;
            if ((err = p3_read_bits_u64(data, nbits, pos, size, &bits)))
                return err;
            if (bits >> (size - 1)) block[k] = (int32_t)bits;
            else block[k] =
                (int32_t)((int64_t)bits - (((int64_t)1) << size) + 1);
            k++;
        }
    }
    return P3_OK;
}

int p3_decode_dc_first(uint8_t *data, int64_t nbits, int64_t *pos,
                       int32_t **dc_luts, int32_t **views,
                       uint8_t *slots, int64_t *flats, int64_t nblocks,
                       int shift, int32_t *prev_dc) {
    for (int64_t i = 0; i < nblocks; i++) {
        int slot = slots[i];
        int64_t dc;
        int err = p3_decode_dc_value(data, nbits, pos, dc_luts[slot],
                                     &prev_dc[slot], &dc);
        if (err) return err;
        int64_t shifted = dc * (((int64_t)1) << shift);
        if (shifted < -((int64_t)1 << 31) || shifted > ((int64_t)1 << 31) - 1)
            return P3_ERR_OVERFLOW;
        views[slot][flats[i] * 64] = (int32_t)shifted;
    }
    return P3_OK;
}

int p3_decode_dc_refine(uint8_t *data, int64_t nbits, int64_t *pos,
                        int32_t **views, uint8_t *slots, int64_t *flats,
                        int64_t nblocks, int32_t bit_value) {
    for (int64_t i = 0; i < nblocks; i++) {
        if (*pos + 1 > nbits) return P3_ERR_EOD;
        uint32_t bit = p3_peek16(data, *pos) >> 15;
        *pos += 1;
        if (bit) views[slots[i]][flats[i] * 64] |= bit_value;
    }
    return P3_OK;
}

int p3_decode_ac_first(uint8_t *data, int64_t nbits, int64_t *pos,
                       int32_t *ac_lut, int64_t *flats, int64_t nblocks,
                       int ss, int se, int shift, int32_t *view) {
    int64_t eob_run = 0;
    for (int64_t i = 0; i < nblocks; i++) {
        if (eob_run > 0) { eob_run--; continue; }
        int32_t *block = view + flats[i] * 64;
        int k = ss;
        while (k <= se) {
            int symbol, err;
            if ((err = p3_huff_symbol(data, nbits, pos, ac_lut, &symbol)))
                return err;
            int run = symbol >> 4;
            int size = symbol & 0x0F;
            if (size == 0) {
                if (run == 15) { k += 16; continue; }  /* ZRL */
                eob_run = (((int64_t)1) << run) - 1;
                if (run) {
                    uint64_t extra;
                    if ((err = p3_read_bits_u64(data, nbits, pos, run,
                                                &extra)))
                        return err;
                    eob_run += (int64_t)extra;
                }
                break;
            }
            k += run;
            if (k > se) return P3_ERR_AC_BOUNDS;
            uint64_t bits;
            if ((err = p3_read_bits_u64(data, nbits, pos, size, &bits)))
                return err;
            int64_t value;
            if (bits >> (size - 1)) value = (int64_t)bits;
            else value = (int64_t)bits - (((int64_t)1) << size) + 1;
            block[k] = (int32_t)(value * (((int64_t)1) << shift));
            k++;
        }
    }
    return P3_OK;
}

int p3_decode_ac_refine(uint8_t *data, int64_t nbits, int64_t *pos,
                        int32_t *ac_lut, int64_t *flats, int64_t nblocks,
                        int ss, int se, int32_t positive, int32_t *view) {
    int32_t negative = -positive;
    int64_t eob_run = 0;
    for (int64_t i = 0; i < nblocks; i++) {
        int32_t *block = view + flats[i] * 64;
        int k = ss;
        if (eob_run == 0) {
            while (k <= se) {
                int symbol, err;
                if ((err = p3_huff_symbol(data, nbits, pos, ac_lut,
                                          &symbol)))
                    return err;
                int run = symbol >> 4;
                int size = symbol & 0x0F;
                int32_t new_value = 0;
                if (size == 0) {
                    if (run != 15) {
                        eob_run = ((int64_t)1) << run;
                        if (run) {
                            uint64_t extra;
                            if ((err = p3_read_bits_u64(data, nbits, pos,
                                                        run, &extra)))
                                return err;
                            eob_run += (int64_t)extra;
                        }
                        break;
                    }
                    /* run == 15 (ZRL): 16 zero-history slots. */
                } else {
                    if (size != 1) return P3_ERR_REFINE_SIZE;
                    if (*pos + 1 > nbits) return P3_ERR_EOD;
                    new_value = (p3_peek16(data, *pos) >> 15)
                        ? positive : negative;
                    *pos += 1;
                }
                /* Advance over the band: correction bits for nonzero-
                 * history coefficients, `run` zero-history skips. */
                while (k <= se) {
                    int32_t coefficient = block[k];
                    if (coefficient != 0) {
                        if (*pos + 1 > nbits) return P3_ERR_EOD;
                        uint32_t bit = p3_peek16(data, *pos) >> 15;
                        *pos += 1;
                        if (bit && (coefficient & positive) == 0) {
                            block[k] = coefficient
                                + (coefficient >= 0 ? positive : negative);
                        }
                    } else {
                        if (run == 0) break;
                        run--;
                    }
                    k++;
                }
                if (new_value && k <= se) block[k] = new_value;
                k++;
            }
        }
        if (eob_run > 0) {
            while (k <= se) {
                int32_t coefficient = block[k];
                if (coefficient != 0) {
                    if (*pos + 1 > nbits) return P3_ERR_EOD;
                    uint32_t bit = p3_peek16(data, *pos) >> 15;
                    *pos += 1;
                    if (bit && (coefficient & positive) == 0) {
                        block[k] = coefficient
                            + (coefficient >= 0 ? positive : negative);
                    }
                }
                k++;
            }
            eob_run--;
        }
    }
    return P3_OK;
}

/* ---- Encoding ---------------------------------------------------------
 *
 * One loop per scan kind.  Each runs twice, like libjpeg's two-pass
 * optimize_coding: with w->out == NULL it is the counting pass, where a
 * symbol only bumps its table's histogram and nothing is written; with
 * an output buffer it is the writing pass, which codes every symbol
 * through its table and writes the stuffed, 1-padded segment.  Blocks
 * are int32 raster blocks read in zigzag order through p3_zigzag; the
 * caller sizes the output buffer for the worst case. */

/* Zigzag position -> raster index within an 8x8 block (T.81 Figure 5). */
static const int p3_zigzag[64] = {
     0,  1,  8, 16,  9,  2,  3, 10, 17, 24, 32, 25, 18, 11,  4,  5,
    12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13,  6,  7, 14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63,
};

/* One Huffman table as a pass uses it: the counting pass fills freq
 * (256 counts), the writing pass reads code/length by symbol, where
 * length 0 marks a symbol absent from the table. */
typedef struct {
    int64_t *freq;
    const uint64_t *code;
    const int64_t *length;
} P3Table;

/* The bit writer every encode loop shares.  Between calls fewer than 8
 * bits are pending, so one call may take up to 56 bits: a code of at
 * most 16 bits and a payload of at most 32. */
typedef struct {
    uint8_t *out;     /* NULL in the counting pass */
    int64_t size;     /* bytes written */
    uint64_t acc;
    int nacc;
    int missing;      /* first symbol absent from its table, or -1 */
} P3Writer;

static void p3_put(P3Writer *w, uint64_t value, int n) {
    if (!w->out || n == 0) return;
    w->acc = (w->acc << n) | (value & ((((uint64_t)1) << n) - 1));
    w->nacc += n;
    while (w->nacc >= 8) {
        uint8_t byte;
        w->nacc -= 8;
        byte = (uint8_t)(w->acc >> w->nacc);
        w->out[w->size++] = byte;
        if (byte == 0xFF) w->out[w->size++] = 0x00;
    }
}

/* A symbol's code followed by n payload bits, in one write. */
static void p3_symbol(P3Writer *w, const P3Table *t, int symbol,
                      uint64_t bits, int n) {
    if (!w->out) {
        t->freq[symbol]++;
    } else if (!t->length[symbol]) {
        if (w->missing < 0) w->missing = symbol;
    } else {
        p3_put(w, (t->code[symbol] << n)
                  | (bits & ((((uint64_t)1) << n) - 1)),
               (int)t->length[symbol] + n);
    }
}

/* Pad the last byte with 1-bits (T.81 F.1.2.3). */
static void p3_flush(P3Writer *w) {
    if (w->nacc) p3_put(w, 0xFF, 8 - w->nacc);
}

static void p3_restart(P3Writer *w, int index) {
    if (!w->out) return;
    p3_flush(w);
    w->out[w->size++] = 0xFF;
    w->out[w->size++] = (uint8_t)(0xD0 + index);
}

static int p3_nbits(uint64_t a) {
#if defined(__GNUC__)
    return a ? 64 - __builtin_clzll(a) : 0;
#else
    int n = 0;
    while (a) { a >>= 1; n++; }
    return n;
#endif
}

/* Magnitude category of v, and its payload in *bits: v itself, or the
 * one's complement v - 1 for a negative v (T.81 F.1.2.1), which
 * p3_put masks to the category's width. */
static int p3_magnitude(int64_t v, uint64_t *bits) {
    *bits = (uint64_t)(v < 0 ? v - 1 : v);
    return p3_nbits((uint64_t)(v < 0 ? -v : v));
}

/* Arithmetic shift right: floor(v / 2^al), as Python's >>. */
static int64_t p3_asr(int64_t v, int al) {
    return v >= 0 ? v >> al : -((-v - 1) >> al) - 1;
}

/* The point transform of the progressive AC scans: sign(v)*(|v|>>al). */
static int64_t p3_point(int64_t v, int al) {
    return v >= 0 ? v >> al : -((-v) >> al);
}

/* A DC difference: the category symbol, then the payload bits. */
static void p3_dc_diff(P3Writer *w, const P3Table *t, int64_t diff) {
    uint64_t bits;
    int n = p3_magnitude(diff, &bits);
    p3_symbol(w, t, n, bits, n);
}

/* A nonzero AC value after `run` zeros: ZRLs, then (run << 4) | size.
 * A size past the symbol's 4-bit field is libjpeg's JERR_BAD_DCT_COEF. */
static int p3_ac_value(P3Writer *w, const P3Table *t, int run, int64_t v) {
    uint64_t bits;
    int n = p3_magnitude(v, &bits);
    while (run > 15) {
        p3_symbol(w, t, 0xF0, 0, 0);
        run -= 16;
    }
    if (n > 15) return P3_ERR_COEF_RANGE;
    p3_symbol(w, t, (run << 4) | n, bits, n);
    return P3_OK;
}

int p3_encode_baseline(P3Writer *w, int32_t **views, uint8_t *slots,
                       int64_t *flats, int64_t total_mcus,
                       int blocks_per_mcu, int64_t restart_interval,
                       P3Table **dc, P3Table **ac) {
    int64_t prev[256] = {0};
    int64_t i = 0;
    for (int64_t mcu = 0; mcu < total_mcus; mcu++) {
        if (restart_interval && mcu && mcu % restart_interval == 0) {
            p3_restart(w, (int)((mcu / restart_interval - 1) & 7));
            for (int s = 0; s < 256; s++) prev[s] = 0;
        }
        for (int b = 0; b < blocks_per_mcu; b++, i++) {
            int slot = slots[i];
            const int32_t *block = views[slot] + flats[i] * 64;
            int run = 0;
            p3_dc_diff(w, dc[slot], block[0] - prev[slot]);
            prev[slot] = block[0];
            for (int k = 1; k < 64; k++) {
                int32_t v = block[p3_zigzag[k]];
                if (!v) { run++; continue; }
                if (p3_ac_value(w, ac[slot], run, v)) return P3_ERR_COEF_RANGE;
                run = 0;
            }
            if (run) p3_symbol(w, ac[slot], 0x00, 0, 0);  /* EOB */
        }
    }
    p3_flush(w);
    return P3_OK;
}

int p3_encode_dc_first(P3Writer *w, int32_t **views, uint8_t *slots,
                       int64_t *flats, int64_t nblocks, int al,
                       P3Table **dc) {
    int64_t prev[256] = {0};
    for (int64_t i = 0; i < nblocks; i++) {
        int slot = slots[i];
        int64_t value = p3_asr(views[slot][flats[i] * 64], al);
        p3_dc_diff(w, dc[slot], value - prev[slot]);
        prev[slot] = value;
    }
    p3_flush(w);
    return P3_OK;
}

int p3_encode_dc_refine(P3Writer *w, int32_t **views, uint8_t *slots,
                        int64_t *flats, int64_t nblocks, int al) {
    for (int64_t i = 0; i < nblocks; i++)
        p3_put(w, (uint64_t)p3_asr(views[slots[i]][flats[i] * 64], al), 1);
    p3_flush(w);
    return P3_OK;
}

/* The EOB run of the progressive AC scans (jcphuff's EOBRUN) and the
 * correction bits buffered behind it.  It flushes before the next
 * symbol, at a run of 0x7FFF and past 900 buffered bits. */
typedef struct {
    int64_t run;
    int nbits;
    uint8_t bits[1024];
} P3EobRun;

static void p3_eob_flush(P3Writer *w, const P3Table *t, P3EobRun *e) {
    if (e->run) {
        int n = p3_nbits((uint64_t)e->run) - 1;
        p3_symbol(w, t, n << 4, (uint64_t)(e->run - (((int64_t)1) << n)), n);
    }
    for (int j = 0; j < e->nbits; j++) p3_put(w, e->bits[j], 1);
    e->run = 0;
    e->nbits = 0;
}

static void p3_eob_account(P3Writer *w, const P3Table *t, P3EobRun *e,
                           const uint8_t *bits, int nbits) {
    e->run++;
    for (int j = 0; j < nbits; j++) e->bits[e->nbits++] = bits[j];
    if (e->run == 0x7FFF || e->nbits > 900) p3_eob_flush(w, t, e);
}

int p3_encode_ac_first(P3Writer *w, int32_t *view, int64_t nblocks,
                       int ss, int se, int al, P3Table **ac) {
    P3EobRun eob;
    eob.run = 0;
    eob.nbits = 0;
    for (int64_t b = 0; b < nblocks; b++) {
        const int32_t *block = view + b * 64;
        int run = 0, coded = 0;
        for (int k = ss; k <= se; k++) {
            int64_t v = p3_point(block[p3_zigzag[k]], al);
            if (!v) { run++; continue; }
            if (!coded) { p3_eob_flush(w, ac[0], &eob); coded = 1; }
            if (p3_ac_value(w, ac[0], run, v)) return P3_ERR_COEF_RANGE;
            run = 0;
        }
        if (run) p3_eob_account(w, ac[0], &eob, 0, 0);
    }
    p3_eob_flush(w, ac[0], &eob);
    p3_flush(w);
    return P3_OK;
}

/* G.1.2.3 / jcphuff encode_mcu_AC_refine: a newly significant
 * coefficient codes (run << 4) | 1 and its sign bit; one already
 * significant rides along as a buffered correction bit. */
int p3_encode_ac_refine(P3Writer *w, int32_t *view, int64_t nblocks,
                        int ss, int se, int al, P3Table **ac) {
    P3EobRun eob;
    int64_t absolute[64];
    uint8_t buffered[64];
    eob.run = 0;
    eob.nbits = 0;
    for (int64_t b = 0; b < nblocks; b++) {
        const int32_t *block = view + b * 64;
        int last_new = -1, run = 0, nbuffered = 0;
        for (int k = ss; k <= se; k++) {
            int64_t v = block[p3_zigzag[k]];
            absolute[k] = (v < 0 ? -v : v) >> al;
            if (absolute[k] == 1) last_new = k;
        }
        for (int k = ss; k <= se; k++) {
            int64_t a = absolute[k];
            if (!a) { run++; continue; }
            while (run > 15 && k <= last_new) {
                p3_eob_flush(w, ac[0], &eob);
                p3_symbol(w, ac[0], 0xF0, 0, 0);
                run -= 16;
                for (int j = 0; j < nbuffered; j++) p3_put(w, buffered[j], 1);
                nbuffered = 0;
            }
            if (a > 1) {
                buffered[nbuffered++] = (uint8_t)(a & 1);
                continue;
            }
            p3_eob_flush(w, ac[0], &eob);
            p3_symbol(w, ac[0], (run << 4) | 1, block[p3_zigzag[k]] > 0, 1);
            for (int j = 0; j < nbuffered; j++) p3_put(w, buffered[j], 1);
            nbuffered = 0;
            run = 0;
        }
        if (run || nbuffered)
            p3_eob_account(w, ac[0], &eob, buffered, nbuffered);
    }
    p3_eob_flush(w, ac[0], &eob);
    p3_flush(w);
    return P3_OK;
}
"""


def source_digest() -> str:
    """Cache key of the generated C (ABI + source)."""
    return hashlib.sha256((CDEF + SOURCE).encode()).hexdigest()[:16]


def build_dir() -> Path:
    """Directory for generated C and compiled artifacts.

    ``REPRO_NATIVE_BUILD_DIR`` overrides; the default is the
    repository's ``build/`` directory next to ``src/`` (falling back to
    a per-user temp directory when that is not writable, e.g. for an
    installed copy on a read-only filesystem).
    """
    override = os.environ.get("REPRO_NATIVE_BUILD_DIR")
    if override:
        return Path(override)
    return Path(__file__).resolve().parents[4] / "build"


class KernelHandle:
    """A loaded kernel: the cffi interface and the dlopened library."""

    __slots__ = ("ffi", "lib", "artifact")

    def __init__(self, ffi: Any, lib: Any, artifact: Path) -> None:
        self.ffi = ffi
        self.lib = lib
        self.artifact = artifact


def _compile_and_load() -> KernelHandle:
    """Compile (if not cached) and dlopen the kernel.  Raises on any
    failure; the caller records the error."""
    import cffi

    digest = source_digest()
    directory = build_dir()
    try:
        directory.mkdir(parents=True, exist_ok=True)
        probe = directory / f".p3codec-writable-{os.getpid()}"
        probe.touch()
        probe.unlink()
    except OSError:
        directory = Path(tempfile.gettempdir()) / "p3codec-build"
        directory.mkdir(parents=True, exist_ok=True)
    artifact = directory / f"p3codec-{digest}.so"
    if not artifact.exists():
        source_path = directory / f"p3codec-{digest}.c"
        source_path.write_text(SOURCE)
        compilers = [os.environ.get("CC") or "gcc", "cc"]
        errors = []
        for compiler in dict.fromkeys(compilers):
            scratch = directory / f".p3codec-{digest}-{os.getpid()}.so"
            command = [
                compiler, "-O2", "-shared", "-fPIC", "-std=c99",
                str(source_path), "-o", str(scratch),
            ]
            try:
                result = subprocess.run(
                    command, capture_output=True, text=True, timeout=120
                )
            except (OSError, subprocess.TimeoutExpired) as error:
                errors.append(f"{compiler}: {error}")
                continue
            if result.returncode == 0:
                # Atomic publish so concurrent builders never dlopen a
                # half-written artifact.
                os.replace(scratch, artifact)
                break
            errors.append(
                f"{compiler}: exit {result.returncode}: "
                f"{result.stderr.strip()[:500]}"
            )
        else:
            raise RuntimeError(
                "no working C compiler for the native kernel: "
                + "; ".join(errors)
            )
    ffi = cffi.FFI()
    ffi.cdef(CDEF)
    lib = ffi.dlopen(str(artifact))
    return KernelHandle(ffi, lib, artifact)


class NativeUnavailableError(RuntimeError):
    """The native kernel failed to build or load."""


class _KernelState:
    """Once-per-process build/load attempt, behind a lock."""

    _GUARDED_BY = {
        "_attempted": "_lock",
        "_handle": "_lock",
        "_error": "_lock",
    }

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._attempted = False
        self._handle: KernelHandle | None = None
        self._error: str | None = None

    def get(self) -> tuple[KernelHandle | None, str | None]:
        with self._lock:
            if not self._attempted:
                self._attempted = True
                try:
                    self._handle = _compile_and_load()
                except Exception as error:  # noqa: BLE001 - any build
                    # failure (missing cffi, no compiler, bad dlopen) is
                    # recorded for require_kernel() and status().
                    self._error = f"{type(error).__name__}: {error}"
            return self._handle, self._error

    def reset_for_tests(self) -> None:
        """Drop the cached attempt (test hook, not a public API)."""
        with self._lock:
            self._attempted = False
            self._handle = None
            self._error = None


_STATE = _KernelState()


def require_kernel() -> KernelHandle:
    """The loaded kernel; raises :class:`NativeUnavailableError` with
    the build error when it cannot build or load."""
    handle, error = _STATE.get()
    if handle is None:
        raise NativeUnavailableError(
            f"native codec kernel is not available: {error}"
        )
    return handle


def status() -> dict[str, Any]:
    """Build/load status for :func:`repro.jpeg.engine_info`."""
    handle, error = _STATE.get()
    return {
        "available": handle is not None,
        "build_error": error,
        "artifact": str(handle.artifact) if handle else None,
        "source_digest": source_digest(),
        "python": sys.version.split()[0],
    }
