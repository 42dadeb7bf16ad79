/* libjpeg as an outside oracle for the codec tests.
 *
 *   cc -O2 libjpeg_coefficients.c -o libjpeg_coefficients -ljpeg
 *   ./libjpeg_coefficients read FILE.jpg > coefficients.bin
 *   ./libjpeg_coefficients write DIR
 *
 * "read" decodes FILE with jpeg_read_coefficients and writes its
 * quantized coefficients to stdout: the components in frame order, each
 * component's blocks in raster order over its own block grid, each
 * block's 64 values in natural (row-major) order, as little-endian
 * int16.  It exits 2 when libjpeg warned about corrupt data (the
 * warning itself goes to stderr).
 *
 * "write" makes the two fixtures committed beside this file, both from
 * one synthetic 45x37 RGB image at quality 75 with 4:2:0 sampling, so
 * the luma grid (5x6 blocks) is smaller than its MCU-padded grid (6x6):
 *
 *   progressive_dc_per_component.jpg: jpeg_simple_progression's script
 *     with each DC scan split into one scan per component;
 *   progressive_restart_1.jpg: jpeg_simple_progression with a restart
 *     interval of one MCU.
 */

#include <stdio.h>
#include <stdlib.h>
#include <string.h>

#include <jpeglib.h>

#define WIDTH 45
#define HEIGHT 37

static int read_coefficients(const char *path) {
    struct jpeg_decompress_struct cinfo;
    struct jpeg_error_mgr jerr;
    FILE *in = fopen(path, "rb");
    if (!in) {
        perror(path);
        return 1;
    }
    cinfo.err = jpeg_std_error(&jerr);
    jpeg_create_decompress(&cinfo);
    jpeg_stdio_src(&cinfo, in);
    jpeg_read_header(&cinfo, TRUE);
    jvirt_barray_ptr *arrays = jpeg_read_coefficients(&cinfo);
    for (int c = 0; c < cinfo.num_components; c++) {
        jpeg_component_info *comp = &cinfo.comp_info[c];
        for (JDIMENSION row = 0; row < comp->height_in_blocks; row++) {
            JBLOCKARRAY blocks = (*cinfo.mem->access_virt_barray)(
                (j_common_ptr)&cinfo, arrays[c], row, 1, FALSE);
            for (JDIMENSION col = 0; col < comp->width_in_blocks; col++) {
                for (int k = 0; k < DCTSIZE2; k++) {
                    unsigned value = (unsigned short)blocks[0][col][k];
                    putchar((int)(value & 0xFF));
                    putchar((int)(value >> 8));
                }
            }
        }
    }
    jpeg_finish_decompress(&cinfo);
    long warnings = jerr.num_warnings;
    jpeg_destroy_decompress(&cinfo);
    fclose(in);
    return warnings ? 2 : 0;
}

/* A smooth gradient under deterministic noise, so every band of every
 * component carries nonzero coefficients. */
static void make_image(unsigned char *rgb) {
    unsigned state = 12345;
    for (int y = 0; y < HEIGHT; y++) {
        for (int x = 0; x < WIDTH; x++) {
            for (int c = 0; c < 3; c++) {
                state = state * 1103515245u + 12345u;
                int noise = (int)((state >> 16) % 61) - 30;
                int base = c == 0 ? 5 * x : c == 1 ? 6 * y : 3 * (x + y);
                int value = base + noise;
                rgb[(y * WIDTH + x) * 3 + c] =
                    (unsigned char)(value < 0 ? 0 : value > 255 ? 255 : value);
            }
        }
    }
}

static const jpeg_scan_info dc_per_component[] = {
    {1, {0}, 0, 0, 0, 1},
    {1, {1}, 0, 0, 0, 1},
    {1, {2}, 0, 0, 0, 1},
    {1, {0}, 1, 5, 0, 2},
    {1, {2}, 1, 63, 0, 1},
    {1, {1}, 1, 63, 0, 1},
    {1, {0}, 6, 63, 0, 2},
    {1, {0}, 1, 63, 2, 1},
    {1, {0}, 0, 0, 1, 0},
    {1, {1}, 0, 0, 1, 0},
    {1, {2}, 0, 0, 1, 0},
    {1, {2}, 1, 63, 1, 0},
    {1, {1}, 1, 63, 1, 0},
    {1, {0}, 1, 63, 1, 0},
};

static int write_fixture(const char *dir, const char *name,
                         const unsigned char *rgb, int per_component_dc) {
    char path[4096];
    struct jpeg_compress_struct cinfo;
    struct jpeg_error_mgr jerr;
    snprintf(path, sizeof path, "%s/%s", dir, name);
    FILE *out = fopen(path, "wb");
    if (!out) {
        perror(path);
        return 1;
    }
    cinfo.err = jpeg_std_error(&jerr);
    jpeg_create_compress(&cinfo);
    jpeg_stdio_dest(&cinfo, out);
    cinfo.image_width = WIDTH;
    cinfo.image_height = HEIGHT;
    cinfo.input_components = 3;
    cinfo.in_color_space = JCS_RGB;
    jpeg_set_defaults(&cinfo);
    jpeg_set_quality(&cinfo, 75, TRUE);
    cinfo.comp_info[0].h_samp_factor = 2;
    cinfo.comp_info[0].v_samp_factor = 2;
    for (int c = 1; c < 3; c++) {
        cinfo.comp_info[c].h_samp_factor = 1;
        cinfo.comp_info[c].v_samp_factor = 1;
    }
    if (per_component_dc) {
        cinfo.scan_info = dc_per_component;
        cinfo.num_scans =
            (int)(sizeof dc_per_component / sizeof dc_per_component[0]);
    } else {
        jpeg_simple_progression(&cinfo);
        cinfo.restart_interval = 1;
    }
    jpeg_start_compress(&cinfo, TRUE);
    while (cinfo.next_scanline < cinfo.image_height) {
        JSAMPROW row = (JSAMPROW)&rgb[cinfo.next_scanline * WIDTH * 3];
        jpeg_write_scanlines(&cinfo, &row, 1);
    }
    jpeg_finish_compress(&cinfo);
    jpeg_destroy_compress(&cinfo);
    fclose(out);
    return 0;
}

int main(int argc, char **argv) {
    if (argc == 3 && strcmp(argv[1], "read") == 0)
        return read_coefficients(argv[2]);
    if (argc == 3 && strcmp(argv[1], "write") == 0) {
        static unsigned char rgb[WIDTH * HEIGHT * 3];
        make_image(rgb);
        return write_fixture(argv[2], "progressive_dc_per_component.jpg",
                             rgb, 1)
            || write_fixture(argv[2], "progressive_restart_1.jpg", rgb, 0);
    }
    fprintf(stderr, "usage: %s read FILE | write DIR\n", argv[0]);
    return 64;
}
