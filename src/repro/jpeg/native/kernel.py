"""Build and load the native codec kernel (cffi ABI mode).

The kernel is a single translation unit of portable C99 compiled on
first use with the host C compiler::

    cc -O2 -shared -fPIC p3codec-<digest>.c -o p3codec-<digest>.so

and opened with ``cffi``'s ABI-mode ``dlopen`` — no setuptools, no
extension-module machinery, no new dependencies.  Artifacts are cached
under the repository's ``build/`` directory keyed by a SHA-256 of the C
source, so a source change recompiles and a warm tree just dlopens.

The codec requires the kernel.  The build is tried once per
process; a missing compiler, a failed compile or a failed ``dlopen`` is
recorded, :func:`status` reports it, and :func:`require_kernel` raises
:class:`NativeUnavailableError` carrying it.  Importing this module
never fails.

One C call decodes a whole scan (``p3_decode_scan``): it finds the
RSTn markers, destuffs each restart segment into one zero-padded
buffer, and runs the scan kind's loop once per restart interval.  Each
loop reads its segment through a zero-padded 16-bit peek, fails with
EndOfData when a consume passes the segment end, and checks the T.81
decoder's error conditions in the order the scalar test oracle
(``tests/jpeg/scalar_codec.py``) checks them, so both reach the same
verdict on every stream.

Each C encode loop covers one of the five scan kinds (baseline, DC
first, DC refinement, AC first, AC refinement) and runs twice, like
libjpeg's two-pass ``optimize_coding``: a counting pass that fills
per-table symbol histograms, then a writing pass that codes the scan
through one shared bit writer (:mod:`repro.jpeg.native.encode`).

The pixel passes (:mod:`repro.jpeg.native.pixels`) are one loop per
per-sample stage of the upload: RGB -> YCbCr, YCbCr planes -> uint8
RGB (or plain float planes -> uint8, the provider's packing), the level
shift with 8x8 tiling, quantization, and the Gaussian blur with the
unsharp mask fused into its last pass.  Each does the double
operations of the numpy form it replaced in the same order; C99 in an
ISO mode contracts no multiply-add (GCC's ``-std=c99`` implies
``-ffp-contract=off``), so their outputs are bit-identical to those
forms, which ``tests/jpeg/oracles.py`` keeps.
"""

from __future__ import annotations

import functools
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
ERR_RESTART = 8

#: ABI declarations handed to ``ffi.cdef`` (must match the C source).
CDEF = """
int p3_decode_scan(int kind, const uint8_t *raw, int64_t n, uint8_t *buf,
                   int64_t total_mcus, int64_t blocks_per_mcu,
                   int64_t restart_interval, int32_t **dc_luts,
                   int32_t **ac_luts, int32_t **views, int32_t *prev_dc,
                   int nviews, uint8_t *slots, int64_t *flats,
                   int ss, int se, int al);
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
void p3_rgb_to_ycbcr(const uint8_t *u8, const double *f64, int64_t h,
                     int64_t w, const int64_t *strides, const double *k,
                     double *out);
void p3_planes_to_rgb8(const double *p0, const double *p1, const double *p2,
                       int64_t h, int64_t w, const int64_t *strides,
                       const double *k, uint8_t *out);
void p3_tile(const double *plane, int64_t h, int64_t w, int64_t rs,
             int64_t cs, double shift, double *out);
void p3_quantize(const double *coefficients, int64_t n, const double *table,
                 int32_t *out);
void p3_blur(const double *plane, int64_t h, int64_t w,
             const double *weights, int radius, double amount,
             const double **tap, double *row, double *out);
"""

#: The kernel itself.  The decode loops run over destuffed bytes that
#: ``p3_decode_scan`` pads with 8 zero bytes, so the 16-bit peek can
#: always read 4 bytes without a bounds check; its caller sizes that
#: buffer at the scan's raw length plus 8.  The encode loops write into
#: a buffer the caller sizes for the worst case.
SOURCE = r"""
#include <math.h>
#include <stdint.h>

#define P3_OK 0
#define P3_ERR_HUFF 1
#define P3_ERR_EOD 2
#define P3_ERR_DC_RANGE 3
#define P3_ERR_AC_BOUNDS 4
#define P3_ERR_REFINE_SIZE 5
#define P3_ERR_OVERFLOW 6
#define P3_ERR_COEF_RANGE 7
#define P3_ERR_RESTART 8

/* Next 16 bits at a bit cursor, zero-padded past the end (p3_segment
 * writes >= 8 trailing zero bytes). */
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

static int p3_decode_baseline(uint8_t *data, int64_t nbits, int64_t *pos,
                              int32_t **dc_luts, int32_t **ac_luts,
                              int32_t **views, uint8_t *slots,
                              int64_t *flats, int64_t nblocks,
                              int32_t *prev_dc) {
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

static int p3_decode_dc_first(uint8_t *data, int64_t nbits, int64_t *pos,
                              int32_t **dc_luts, int32_t **views,
                              uint8_t *slots, int64_t *flats,
                              int64_t nblocks, int shift, int32_t *prev_dc) {
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

static int p3_decode_dc_refine(uint8_t *data, int64_t nbits, int64_t *pos,
                               int32_t **views, uint8_t *slots,
                               int64_t *flats, int64_t nblocks,
                               int32_t bit_value) {
    for (int64_t i = 0; i < nblocks; i++) {
        if (*pos + 1 > nbits) return P3_ERR_EOD;
        uint32_t bit = p3_peek16(data, *pos) >> 15;
        *pos += 1;
        if (bit) views[slots[i]][flats[i] * 64] |= bit_value;
    }
    return P3_OK;
}

static int p3_decode_ac_first(uint8_t *data, int64_t nbits, int64_t *pos,
                              int32_t *ac_lut, int64_t *flats,
                              int64_t nblocks, int ss, int se, int shift,
                              int32_t *view) {
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

static int p3_decode_ac_refine(uint8_t *data, int64_t nbits, int64_t *pos,
                               int32_t *ac_lut, int64_t *flats,
                               int64_t nblocks, int ss, int se,
                               int32_t positive, int32_t *view) {
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

/* Destuff the entropy segment that starts at raw[start] into out, up to
 * the next RSTn or the end of the scan, and zero the 8 bytes after it.
 * Inside entropy data every 0xFF is followed by 0x00 (stuffing) or a
 * marker, so this finds exactly the RSTn markers.  Sets *len to the
 * destuffed length; returns the offset just past the RSTn, or -1 when
 * the segment runs to the end of the scan. */
static int64_t p3_segment(const uint8_t *raw, int64_t n, int64_t start,
                          uint8_t *out, int64_t *len) {
    int64_t i = start, o = 0, next = -1;
    while (i < n) {
        uint8_t b = raw[i++];
        if (b == 0xFF && i < n) {
            if (raw[i] >= 0xD0 && raw[i] <= 0xD7) { next = i + 1; break; }
            if (raw[i] == 0x00) i++;
        }
        out[o++] = b;
    }
    for (int j = 0; j < 8; j++) out[o + j] = 0;
    *len = o;
    return next;
}

/* Decode one scan of the given kind (0 baseline, 1 DC first, 2 DC
 * refinement, 3 AC first, 4 AC refinement) along its visit plan: the
 * MCU rows of (slots, flats), blocks_per_mcu blocks each.  The plan
 * splits into intervals of restart_interval MCUs (the whole scan when
 * 0), one restart segment of raw each, destuffed in turn into buf
 * (n + 8 bytes).  Each interval starts with zeroed DC predictors and EOB
 * run, and the previous segment must be consumed to within its padding
 * bits, as the scalar engine requires when it reads the RSTn. */
int p3_decode_scan(int kind, const uint8_t *raw, int64_t n, uint8_t *buf,
                   int64_t total_mcus, int64_t blocks_per_mcu,
                   int64_t restart_interval, int32_t **dc_luts,
                   int32_t **ac_luts, int32_t **views, int32_t *prev_dc,
                   int nviews, uint8_t *slots, int64_t *flats,
                   int ss, int se, int al) {
    int64_t interval = restart_interval ? restart_interval : total_mcus;
    int64_t next = 0, nbits = 0, pos = 0;
    for (int64_t mcu = 0; mcu < total_mcus; mcu += interval) {
        if (mcu && (nbits - pos >= 8 || next < 0)) return P3_ERR_RESTART;
        int64_t len;
        next = p3_segment(raw, n, next, buf, &len);
        nbits = 8 * len;
        pos = 0;
        for (int s = 0; s < nviews; s++) prev_dc[s] = 0;
        int64_t mcus = total_mcus - mcu < interval ? total_mcus - mcu
                                                   : interval;
        int64_t first = mcu * blocks_per_mcu, count = mcus * blocks_per_mcu;
        uint8_t *slot = slots + first;
        int64_t *flat = flats + first;
        int err;
        switch (kind) {
        case 0:
            err = p3_decode_baseline(buf, nbits, &pos, dc_luts, ac_luts,
                                     views, slot, flat, count, prev_dc);
            break;
        case 1:
            err = p3_decode_dc_first(buf, nbits, &pos, dc_luts, views, slot,
                                     flat, count, al, prev_dc);
            break;
        case 2:
            err = p3_decode_dc_refine(buf, nbits, &pos, views, slot, flat,
                                      count, (int32_t)1 << al);
            break;
        case 3:
            err = p3_decode_ac_first(buf, nbits, &pos, ac_luts[0], flat,
                                     count, ss, se, al, views[0]);
            break;
        default:
            err = p3_decode_ac_refine(buf, nbits, &pos, ac_luts[0], flat,
                                      count, ss, se, (int32_t)1 << al,
                                      views[0]);
        }
        if (err) return err;
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

/* ---- Pixel passes -----------------------------------------------------
 *
 * One loop per per-sample stage of the upload path: colour conversion
 * both ways, the level shift and 8x8 tiling, quantization, the Gaussian
 * blur and unsharp mask, and the provider's float-to-uint8 packing
 * (repro.jpeg.native.pixels drives them).  Each does the IEEE double
 * operations of the numpy form it replaced, in the same order, and ISO
 * C99 contracts no multiply-add, so every output is bit-identical to
 * those forms (tests/jpeg/oracles.py keeps them).  Strides count
 * elements.  Nothing here calls libm: fabs is a compiler builtin. */

/* np.clip(np.round(x), 0, 255).astype(np.uint8), without a branch.
 * Clipping first rounds alike, and then rounding half to even is adding
 * and subtracting 2^52, past which a double has no fraction bits.  NaN
 * gives 0, as numpy's cast does on x86-64. */
static uint8_t p3_sample8(double x) {
    const double big = 4503599627370496.0;
    x = x > 0.0 ? x : 0.0;
    x = x < 255.0 ? x : 255.0;
    return (uint8_t)((x + big) - big);
}

/* JFIF RGB -> YCbCr of one pixel, k = (kr, kg, kb). */
static void p3_ycbcr(double r, double g, double b, const double *k,
                     double *out) {
    double y = r * k[0] + g * k[1];
    y = y + b * k[2];
    out[0] = y;
    out[1] = (b - y) / (2.0 * (1.0 - k[2])) + 128.0;
    out[2] = (r - y) / (2.0 * (1.0 - k[0])) + 128.0;
}

/* (h, w, 3) RGB samples, uint8 at u8 or float64 at f64 (the other is
 * NULL), with row, column and channel strides, -> (h, w, 3) float64
 * YCbCr in out. */
void p3_rgb_to_ycbcr(const uint8_t *u8, const double *f64, int64_t h,
                     int64_t w, const int64_t *strides, const double *k,
                     double *out) {
    int64_t rs = strides[0], cs = strides[1], ks = strides[2];
    for (int64_t i = 0; i < h; i++) {
        for (int64_t j = 0; j < w; j++, out += 3) {
            int64_t at = i * rs + j * cs;
            if (u8)
                p3_ycbcr(u8[at], u8[at + ks], u8[at + 2 * ks], k, out);
            else
                p3_ycbcr(f64[at], f64[at + ks], f64[at + 2 * ks], k, out);
        }
    }
}

/* Three float64 h x w planes (row and column strides of each in turn)
 * -> (h, w, 3) uint8 samples, rounded and clipped.  With k = (kr, kg,
 * kb) the planes are Y, Cb and Cr and go through JFIF YCbCr -> RGB
 * first; with k NULL they are packed as they are.  Strides and weights
 * are read once: a uint8 store may alias anything. */
void p3_planes_to_rgb8(const double *p0, const double *p1, const double *p2,
                       int64_t h, int64_t w, const int64_t *strides,
                       const double *k, uint8_t *out) {
    const int64_t r0 = strides[0], c0 = strides[1], r1 = strides[2],
                  c1 = strides[3], r2 = strides[4], c2 = strides[5];
    const int convert = k != 0;
    const double kr = convert ? k[0] : 0.0, kg = convert ? k[1] : 1.0,
                 kb = convert ? k[2] : 0.0;
    for (int64_t i = 0; i < h; i++) {
        const double *a = p0 + i * r0, *b = p1 + i * r1, *c = p2 + i * r2;
        for (int64_t j = 0; j < w; j++, out += 3) {
            double s0 = a[j * c0], s1 = b[j * c1], s2 = c[j * c2];
            if (convert) {  /* Y, Cb, Cr -> R, G, B */
                double y = s0;
                double red = (s2 - 128.0) * (2.0 * (1.0 - kr)) + y;
                double blue = (s1 - 128.0) * (2.0 * (1.0 - kb)) + y;
                s0 = red;
                s1 = ((y - red * kr) - blue * kb) / kg;
                s2 = blue;
            }
            out[0] = p3_sample8(s0);
            out[1] = p3_sample8(s1);
            out[2] = p3_sample8(s2);
        }
    }
}

/* Level shift and 8x8 tiling: an h x w float64 plane (strides rs, cs)
 * -> (ceil(h / 8), ceil(w / 8), 8, 8) blocks of x - shift.  Rows and
 * columns past the plane repeat its last ones, as np.pad(mode="edge"). */
void p3_tile(const double *plane, int64_t h, int64_t w, int64_t rs,
             int64_t cs, double shift, double *out) {
    int64_t bx = (w + 7) / 8;
    for (int64_t r = 0; r < (h + 7) / 8 * 8; r++) {
        const double *row = plane + (r < h ? r : h - 1) * rs;
        double *dst = out + (r / 8) * bx * 64 + (r % 8) * 8;
        for (int64_t c = 0; c < bx * 8; c += 8, dst += 64) {
            if (c + 8 <= w) {
                const double *src = row + c * cs;
                for (int k = 0; k < 8; k++) dst[k] = src[k * cs] - shift;
            } else {
                for (int k = 0; k < 8; k++)
                    dst[k] = row[(c + k < w ? c + k : w - 1) * cs] - shift;
            }
        }
    }
}

/* Quantize n coefficients, 64 per block against table's 64 entries:
 * s = c / t rounded half away from zero, sign(s) floor(|s| + 0.5), as
 * int32.  A magnitude past int32, or NaN, gives INT32_MIN, as numpy's
 * cast does on x86-64.  The sign is applied without a branch: real
 * coefficient signs are as good as random. */
void p3_quantize(const double *coefficients, int64_t n, const double *table,
                 int32_t *out) {
    for (int64_t i = 0; i < n; i++) {
        double s = coefficients[i] / table[i & 63];
        double a = fabs(s) + 0.5;
        int32_t negative = -(int32_t)(s < 0.0);
        if (a < 2147483648.0)
            out[i] = ((int32_t)a ^ negative) - negative;
        else
            out[i] = INT32_MIN;
    }
}

/* The blur's taps for outputs at..at+n-1 of one row: tap[radius + d]
 * points at the samples d away (d = -radius..radius), and each output
 * is x[0] w[r], then += (x[-j] + x[j]) w[r-j] for j = r..1, as ndimage's
 * NI_Correlate1D sums it.  Called with n = 8, the inner loops have a
 * fixed trip count, which -O2 vectorizes. */
static inline void p3_taps(const double *const *tap, const double *weights,
                           int radius, int64_t at, int64_t n,
                           double *restrict out) {
    for (int64_t k = 0; k < n; k++)
        out[k] = tap[radius][at + k] * weights[radius];
    for (int j = radius; j > 0; j--) {
        const double *restrict lo = tap[radius - j] + at;
        const double *restrict hi = tap[radius + j] + at;
        const double wj = weights[radius - j];
        for (int64_t k = 0; k < n; k++) out[k] += (lo[k] + hi[k]) * wj;
    }
}

static void p3_taps_row(const double *const *tap, const double *weights,
                        int radius, int64_t w, double *out) {
    int64_t c = 0;
    for (; c + 8 <= w; c += 8) p3_taps(tap, weights, radius, c, 8, out + c);
    p3_taps(tap, weights, radius, c, w - c, out + c);
}

/* Gaussian blur of a C-ordered h x w float64 plane with the 2 radius + 1
 * symmetric weights, edges replicated: axis 0 into the row buffer, then
 * axis 1 into out, one row at a time.  With a nonzero amount the row is
 * then turned into the unsharp mask x + amount (x - blur).  row holds
 * w + 2 radius doubles and tap 2 radius + 1 pointers. */
void p3_blur(const double *plane, int64_t h, int64_t w,
             const double *weights, int radius, double amount,
             const double **tap, double *row, double *out) {
    double *mid = row + radius;
    for (int64_t i = 0; i < h; i++) {
        const double *x = plane + i * w;
        double *y = out + i * w;
        for (int d = -radius; d <= radius; d++) {
            int64_t at = i + d < 0 ? 0 : (i + d >= h ? h - 1 : i + d);
            tap[radius + d] = plane + at * w;
        }
        p3_taps_row(tap, weights, radius, w, mid);
        for (int j = 1; j <= radius; j++) {
            mid[-j] = mid[0];
            mid[w - 1 + j] = mid[w - 1];
        }
        for (int d = -radius; d <= radius; d++) tap[radius + d] = mid + d;
        p3_taps_row(tap, weights, radius, w, y);
        if (amount != 0.0)
            for (int64_t c = 0; c < w; c++) y[c] = x[c] + amount * (x[c] - y[c]);
    }
}
"""


@functools.cache
def source_digest() -> str:
    """Cache key of the generated C (ABI + source), hashed once."""
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
