/**
 * @file
 * Implementation of binary trace serialization.
 */

#include "trace/trace_io.hh"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <utility>

#include <fcntl.h>
#include <unistd.h>

#include "common/hash.hh"
#include "common/logging.hh"
#include "trace/mmap_file.hh"

namespace casim {

namespace {

constexpr char kMagic[4] = {'C', 'S', 'T', 'R'};
constexpr std::uint32_t kVersion = 1;

constexpr char kBundleMagic[4] = {'C', 'C', 'A', 'P'};

/** On-disk alignment of the v3 data sections (fixed, not the runtime
 *  page size, so files are portable between configurations). */
constexpr std::uint64_t kV3SectionAlign = 4096;

/** Fixed v3 header bytes before the meta words. */
constexpr std::uint64_t kV3HeaderBytes = 96;

/** v3 record stride: the native MemAccess layout. */
constexpr std::uint32_t kV3RecordStride = sizeof(MemAccess);

/** Whether mapped loads verify every data section too. */
#ifdef CASIM_PARANOID
constexpr bool kVerifyMappedSections = true;
#else
constexpr bool kVerifyMappedSections = false;
#endif

std::uint64_t
alignUp(std::uint64_t value, std::uint64_t align)
{
    return (value + align - 1) / align * align;
}

/** Sanity cap on bundle metadata words (stats, not bulk data). */
constexpr std::uint32_t kBundleMaxMeta = 65536;

/** Sanity cap on label planes per bundle (one per studied window). */
constexpr std::uint32_t kBundleMaxPlanes = 64;

/** On-disk record stride: addr u64 + pc u64 + core u8 + is_write u8. */
constexpr std::uint64_t kRecordBytes = 8 + 8 + 1 + 1;

/**
 * Records per bulk-I/O chunk.  Per-record stream operations dominate
 * trace I/O cost, so records are staged through a flat buffer; chunking
 * bounds the buffer so a corrupt header on a non-seekable stream can
 * never demand an absurd allocation.
 */
constexpr std::uint64_t kChunkRecords = 1 << 16;

/** Append one record's bytes at `dst` (little-endian fields). */
void
packRecord(char *dst, const MemAccess &access)
{
    std::memcpy(dst, &access.addr, 8);
    std::memcpy(dst + 8, &access.pc, 8);
    dst[16] = static_cast<char>(access.core);
    dst[17] = access.isWrite ? 1 : 0;
}

template <typename T>
void
writeScalar(std::ostream &os, T value)
{
    os.write(reinterpret_cast<const char *>(&value), sizeof(value));
}

template <typename T>
bool
readScalar(std::istream &is, T &value)
{
    is.read(reinterpret_cast<char *>(&value), sizeof(value));
    return is.good();
}

/**
 * fsync the file at `path` (best-effort; Linux allows fsync through a
 * read-only descriptor).  Returns false when the data may not have
 * reached stable storage.
 */
bool
syncFile(const std::string &path)
{
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return false;
    const bool ok = ::fsync(fd) == 0;
    ::close(fd);
    return ok;
}

/** fsync the directory containing `path` so a rename is durable. */
void
syncParentDir(const std::string &path)
{
    const std::filesystem::path target(path);
    const std::filesystem::path dir = target.has_parent_path()
                                          ? target.parent_path()
                                          : std::filesystem::path(".");
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0)
        return;
    ::fsync(fd);
    ::close(fd);
}

} // namespace

/**
 * Write `contents` via writer() to a temporary file, fsync it, and
 * rename it into place: a crash at any point leaves either the old
 * file or none, never a torn one the next boot could map.
 */
bool
writeFileDurably(const std::string &path,
                 const std::function<bool(std::ostream &)> &writer)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    const fs::path target(path);
    if (target.has_parent_path())
        fs::create_directories(target.parent_path(), ec);

    std::ostringstream suffix;
    suffix << ".tmp." << ::getpid();
    const std::string tmp = path + suffix.str();
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os)
            return false;
        bool ok = writer(os);
        os.flush();
        ok = ok && os.good();
        if (!ok) {
            os.close();
            fs::remove(tmp, ec);
            return false;
        }
    }
    if (!syncFile(tmp)) {
        fs::remove(tmp, ec);
        return false;
    }
    fs::rename(tmp, target, ec);
    if (ec) {
        fs::remove(tmp, ec);
        return false;
    }
    syncParentDir(path);
    return true;
}

bool
writeTrace(const Trace &trace, std::ostream &os)
{
    os.write(kMagic, sizeof(kMagic));
    writeScalar<std::uint32_t>(os, kVersion);
    writeScalar<std::uint32_t>(os, trace.numCores());
    const std::string &name = trace.name();
    writeScalar<std::uint32_t>(
        os, static_cast<std::uint32_t>(name.size()));
    os.write(name.data(), static_cast<std::streamsize>(name.size()));
    writeScalar<std::uint64_t>(os, trace.size());
    std::vector<char> buffer(
        static_cast<std::size_t>(
            std::min<std::uint64_t>(
                kChunkRecords,
                std::max<std::uint64_t>(trace.size(), 1))) *
        kRecordBytes);
    std::size_t buffered = 0;
    for (const auto &access : trace) {
        packRecord(&buffer[buffered * kRecordBytes], access);
        if (++buffered * kRecordBytes == buffer.size()) {
            os.write(buffer.data(),
                     static_cast<std::streamsize>(buffer.size()));
            buffered = 0;
        }
    }
    if (buffered != 0)
        os.write(buffer.data(), static_cast<std::streamsize>(
                                    buffered * kRecordBytes));
    return os.good();
}

void
saveTrace(const Trace &trace, const std::string &path)
{
    if (!writeFileDurably(path, [&](std::ostream &os) {
            return writeTrace(trace, os);
        }))
        casim_fatal("cannot durably save trace to '", path, "'");
}

Trace
readTrace(std::istream &is, std::string *error)
{
    const auto fail = [&](const char *what) {
        if (error != nullptr)
            *error = what;
        return Trace("", 1);
    };

    char magic[4];
    is.read(magic, sizeof(magic));
    if (!is.good() || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
        return fail("bad magic");
    std::uint32_t version = 0, num_cores = 0, name_len = 0;
    if (!readScalar(is, version) || version != kVersion)
        return fail("unsupported version");
    if (!readScalar(is, num_cores) || num_cores == 0 ||
        num_cores > kMaxCores)
        return fail("bad core count");
    if (!readScalar(is, name_len) || name_len > 4096)
        return fail("bad name length");
    std::string name(name_len, '\0');
    is.read(name.data(), name_len);
    if (!is.good())
        return fail("truncated name");
    std::uint64_t count = 0;
    if (!readScalar(is, count))
        return fail("truncated count");

    // Never trust the on-disk count blindly: a truncated or corrupt
    // file could otherwise demand an absurd allocation before the
    // record loop notices anything is wrong.  On seekable streams the
    // claimed count is checked against the bytes actually remaining
    // (fixed kRecordBytes stride); on non-seekable streams the reserve
    // is merely capped and the record loop catches truncation.
    std::uint64_t reserve_count = count;
    const std::istream::pos_type here = is.tellg();
    if (here != std::istream::pos_type(-1)) {
        is.seekg(0, std::ios::end);
        const std::istream::pos_type end_pos = is.tellg();
        is.seekg(here);
        if (!is.good() || end_pos < here)
            return fail("unseekable stream");
        const std::uint64_t remaining =
            static_cast<std::uint64_t>(end_pos - here);
        if (count > remaining / kRecordBytes)
            return fail("truncated records");
    } else {
        is.clear();
        reserve_count =
            std::min<std::uint64_t>(count, std::uint64_t{1} << 20);
    }

    Trace trace(name, num_cores);
    trace.reserve(reserve_count);
    std::vector<char> buffer;
    std::uint64_t remaining_records = count;
    while (remaining_records != 0) {
        const std::uint64_t chunk =
            std::min(remaining_records, kChunkRecords);
        buffer.resize(static_cast<std::size_t>(chunk * kRecordBytes));
        is.read(buffer.data(),
                static_cast<std::streamsize>(buffer.size()));
        if (static_cast<std::uint64_t>(is.gcount()) != buffer.size())
            return fail("truncated records");
        for (std::uint64_t i = 0; i < chunk; ++i) {
            const char *rec = &buffer[static_cast<std::size_t>(
                i * kRecordBytes)];
            std::uint64_t addr = 0, pc = 0;
            std::memcpy(&addr, rec, 8);
            std::memcpy(&pc, rec + 8, 8);
            const auto core = static_cast<std::uint8_t>(rec[16]);
            if (core >= num_cores)
                return fail("record core out of range");
            trace.append(addr, pc, static_cast<CoreId>(core),
                         rec[17] != 0);
        }
        remaining_records -= chunk;
    }
    if (error != nullptr)
        error->clear();
    return trace;
}

Trace
loadTrace(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        casim_fatal("cannot open '", path, "' for reading");
    std::string error;
    Trace trace = readTrace(is, &error);
    if (!error.empty())
        casim_fatal("cannot load trace '", path, "': ", error);
    return trace;
}

// --- CCAP v3 -----------------------------------------------------------

namespace {

/** Decoded fixed v3 header fields (see the format in the header). */
struct V3Header
{
    std::uint64_t configHash = 0;
    std::uint64_t fileBytes = 0;
    std::uint64_t headerFnv = 0;
    std::uint64_t recordCount = 0;
    std::uint64_t epochRecords = 1;
    std::uint32_t metaCount = 0;
    std::uint32_t numCores = 0;
    std::uint32_t nameLen = 0;
    std::uint32_t planeCount = 0;
    std::uint64_t traceOff = 0;
    std::uint64_t chainOff = 0;
    std::uint64_t headerRegionBytes = 0;
    std::uint32_t recordStride = 0;

    std::uint64_t
    segCount() const
    {
        return recordCount == 0
                   ? 0
                   : (recordCount + epochRecords - 1) / epochRecords;
    }
};

/** One v3 plane descriptor as stored in the header region. */
struct V3PlaneDesc
{
    std::uint64_t window = 0;
    std::uint64_t nearWindow = 0;
    std::uint64_t codesOff = 0;
    std::uint64_t codesFnv = 0;
};

void
storeBytes(char *base, std::uint64_t off, const void *src,
           std::size_t len)
{
    std::memcpy(base + off, src, len);
}

template <typename T>
T
loadScalar(const void *base, std::uint64_t off)
{
    T value;
    std::memcpy(&value, static_cast<const char *>(base) + off,
                sizeof(value));
    return value;
}

/** Pack records [from, from + n) into `buffer` with zeroed padding. */
void
packV3Records(const Trace &stream, std::uint64_t from, std::uint64_t n,
              std::vector<char> &buffer)
{
    buffer.assign(static_cast<std::size_t>(n) * kV3RecordStride, '\0');
    for (std::uint64_t i = 0; i < n; ++i) {
        const MemAccess &access =
            stream[static_cast<std::size_t>(from + i)];
        char *dst = &buffer[static_cast<std::size_t>(i) *
                            kV3RecordStride];
        std::memcpy(dst, &access.addr, 8);
        std::memcpy(dst + 8, &access.pc, 8);
        dst[16] = static_cast<char>(access.core);
        dst[17] = access.isWrite ? 1 : 0;
    }
}

/**
 * Decode and structurally validate the fixed 96-byte header.  Returns
 * a failure string, or nullptr on success.  The config hash and the
 * header checksum are checked by the caller (they need the full
 * header region).
 */
const char *
decodeV3Fixed(const void *base, V3Header &h)
{
    if (std::memcmp(base, kBundleMagic, sizeof(kBundleMagic)) != 0)
        return "bad bundle magic";
    if (loadScalar<std::uint32_t>(base, 4) != kBundleVersion3)
        return "unsupported bundle version";
    h.configHash = loadScalar<std::uint64_t>(base, 8);
    h.fileBytes = loadScalar<std::uint64_t>(base, 16);
    h.headerFnv = loadScalar<std::uint64_t>(base, 24);
    h.recordCount = loadScalar<std::uint64_t>(base, 32);
    h.epochRecords = loadScalar<std::uint64_t>(base, 40);
    h.metaCount = loadScalar<std::uint32_t>(base, 48);
    h.numCores = loadScalar<std::uint32_t>(base, 52);
    h.nameLen = loadScalar<std::uint32_t>(base, 56);
    h.planeCount = loadScalar<std::uint32_t>(base, 60);
    h.traceOff = loadScalar<std::uint64_t>(base, 64);
    h.chainOff = loadScalar<std::uint64_t>(base, 72);
    h.headerRegionBytes = loadScalar<std::uint64_t>(base, 80);
    h.recordStride = loadScalar<std::uint32_t>(base, 88);

    // A different record stride is a layout this build cannot map; it
    // is staleness (another format revision), not corruption.
    if (h.recordStride != kV3RecordStride)
        return "unsupported bundle version";
    if (h.epochRecords == 0)
        return "bad bundle epoch";
    if (h.metaCount > kBundleMaxMeta)
        return "bad bundle meta count";
    if (h.planeCount > kBundleMaxPlanes)
        return "bad bundle plane count";
    if (h.nameLen > 4096)
        return "bad bundle name length";
    if (h.numCores == 0 || h.numCores > kMaxCores)
        return "bad bundle core count";
    return nullptr;
}

/**
 * Validate the section layout against the canonical writer layout and
 * the actual file size, and decode the plane descriptors.  `region`
 * points at the full header region (already length-checked).
 */
const char *
checkV3Layout(const V3Header &h, const void *region,
              std::uint64_t actual_size,
              std::vector<V3PlaneDesc> &planes)
{
    if (h.fileBytes != actual_size)
        return "bundle size mismatch";
    if (h.traceOff > actual_size ||
        h.recordCount > (actual_size - h.traceOff) / kV3RecordStride)
        return "truncated bundle payload";

    const std::uint64_t segs = h.segCount();
    const std::uint64_t expect_region =
        kV3HeaderBytes + std::uint64_t{h.metaCount} * 8 + h.nameLen +
        segs * 16 + std::uint64_t{h.planeCount} * 32;
    if (h.headerRegionBytes != expect_region)
        return "inconsistent bundle header";
    if (h.traceOff != alignUp(h.headerRegionBytes, kV3SectionAlign))
        return "inconsistent bundle header";

    const std::uint64_t trace_end =
        h.traceOff + h.recordCount * kV3RecordStride;
    std::uint64_t next = alignUp(trace_end, kV3SectionAlign);
    if (h.chainOff != 0) {
        if (h.chainOff != next ||
            h.recordCount > (actual_size - h.chainOff) / 4)
            return "inconsistent bundle header";
        next = alignUp(h.chainOff + h.recordCount * 4,
                       kV3SectionAlign);
    }

    const std::uint64_t desc_off = kV3HeaderBytes +
                                   std::uint64_t{h.metaCount} * 8 +
                                   h.nameLen + segs * 16;
    planes.resize(h.planeCount);
    for (std::uint32_t p = 0; p < h.planeCount; ++p) {
        const std::uint64_t at = desc_off + std::uint64_t{p} * 32;
        planes[p].window = loadScalar<std::uint64_t>(region, at);
        planes[p].nearWindow =
            loadScalar<std::uint64_t>(region, at + 8);
        planes[p].codesOff = loadScalar<std::uint64_t>(region, at + 16);
        planes[p].codesFnv = loadScalar<std::uint64_t>(region, at + 24);
        if (planes[p].codesOff != next ||
            h.recordCount > actual_size - planes[p].codesOff)
            return "inconsistent bundle header";
        next = alignUp(planes[p].codesOff + h.recordCount,
                       kV3SectionAlign);
    }
    if (next != actual_size)
        return "bundle size mismatch";
    return nullptr;
}

/** The header-region FNV with the checksum field itself zeroed. */
std::uint64_t
v3HeaderFnv(const void *region, std::uint64_t region_bytes)
{
    Fnv1a64 hasher;
    hasher.update(region, 24);
    hasher.update(std::uint64_t{0});
    hasher.update(static_cast<const char *>(region) + 32,
                  static_cast<std::size_t>(region_bytes - 32));
    return hasher.digest();
}

/**
 * Verify every data section against the header region: each record's
 * core id and write flag and each segment's trace FNV, then each
 * segment's chain FNV, then each plane's FNV.  Returns a failure
 * string, or nullptr on success.  Reads every data byte.
 */
const char *
verifyV3Sections(const V3Header &h, const std::uint8_t *base,
                 const std::vector<V3PlaneDesc> &planes)
{
    const std::uint64_t dir_off = kV3HeaderBytes +
                                  std::uint64_t{h.metaCount} * 8 +
                                  h.nameLen;
    const auto segment = [&h](std::uint64_t s) {
        const std::uint64_t begin = s * h.epochRecords;
        return std::make_pair(
            begin, std::min(h.recordCount, begin + h.epochRecords));
    };
    for (std::uint64_t s = 0; s < h.segCount(); ++s) {
        const auto [begin, end] = segment(s);
        const std::uint8_t *records =
            base + h.traceOff + begin * kV3RecordStride;
        for (std::uint64_t i = 0; i < end - begin; ++i) {
            const std::uint8_t *rec = records + i * kV3RecordStride;
            if (rec[16] >= h.numCores || rec[17] > 1)
                return "bad bundle trace";
        }
        if (fnv1a64(records, (end - begin) * kV3RecordStride) !=
            loadScalar<std::uint64_t>(base, dir_off + s * 16))
            return "bundle payload checksum mismatch";
    }
    if (h.chainOff != 0) {
        for (std::uint64_t s = 0; s < h.segCount(); ++s) {
            const auto [begin, end] = segment(s);
            if (fnv1a64(base + h.chainOff + begin * 4,
                        (end - begin) * 4) !=
                loadScalar<std::uint64_t>(base, dir_off + s * 16 + 8))
                return "bundle aux checksum mismatch";
        }
    }
    for (const V3PlaneDesc &desc : planes) {
        if (fnv1a64(base + desc.codesOff, h.recordCount) !=
            desc.codesFnv)
            return "bundle aux checksum mismatch";
    }
    return nullptr;
}

} // namespace

bool
writeCaptureBundleV3(std::ostream &os, std::uint64_t config_hash,
                     const std::vector<std::uint64_t> &meta,
                     const Trace &stream, const CaptureAux *aux,
                     std::uint64_t epoch_records)
{
    const std::uint64_t count = stream.size();
    const std::uint64_t epoch = epoch_records == 0 ? 1 : epoch_records;
    const std::uint64_t segs =
        count == 0 ? 0 : (count + epoch - 1) / epoch;
    casim_assert(meta.size() <= kBundleMaxMeta,
                 "too many bundle meta words");
    const std::string &name = stream.name();
    casim_assert(name.size() <= 4096, "bundle trace name too long");

    const std::uint32_t *chain = nullptr;
    std::uint32_t plane_count = 0;
    if (aux != nullptr) {
        if (!aux->nextUse.empty()) {
            casim_assert(aux->nextUse.size() == count,
                         "bundle aux chain length does not match trace");
            chain = aux->nextUse.data();
        }
        casim_assert(aux->planes.size() <= kBundleMaxPlanes,
                     "too many bundle label planes");
        for (const CaptureAuxPlane &plane : aux->planes)
            casim_assert(plane.codes.size() == count,
                         "bundle plane length does not match trace");
        plane_count = static_cast<std::uint32_t>(aux->planes.size());
    }

    // Section layout (every section page-aligned and zero-padded).
    const std::uint64_t header_region =
        kV3HeaderBytes + meta.size() * 8 + name.size() + segs * 16 +
        std::uint64_t{plane_count} * 32;
    const std::uint64_t trace_off =
        alignUp(header_region, kV3SectionAlign);
    const std::uint64_t trace_end =
        trace_off + count * kV3RecordStride;
    std::uint64_t next = alignUp(trace_end, kV3SectionAlign);
    std::uint64_t chain_off = 0;
    if (chain != nullptr) {
        chain_off = next;
        next = alignUp(chain_off + count * 4, kV3SectionAlign);
    }
    std::vector<std::uint64_t> codes_off(plane_count);
    for (std::uint32_t p = 0; p < plane_count; ++p) {
        codes_off[p] = next;
        next = alignUp(next + count, kV3SectionAlign);
    }
    const std::uint64_t file_bytes = next;

    // Per-segment checksums over the exact on-disk bytes (first pack
    // pass; the records are resident on the write side, so packing
    // twice trades a little CPU for not staging the whole section).
    std::vector<char> buffer;
    std::vector<std::uint64_t> trace_fnv(segs), chain_fnv(segs, 0);
    for (std::uint64_t s = 0; s < segs; ++s) {
        const std::uint64_t begin = s * epoch;
        const std::uint64_t end = std::min(count, begin + epoch);
        Fnv1a64 hasher;
        for (std::uint64_t from = begin; from < end;
             from += kChunkRecords) {
            const std::uint64_t n =
                std::min(kChunkRecords, end - from);
            packV3Records(stream, from, n, buffer);
            hasher.update(buffer.data(),
                          static_cast<std::size_t>(n) *
                              kV3RecordStride);
        }
        trace_fnv[s] = hasher.digest();
        if (chain != nullptr)
            chain_fnv[s] = fnv1a64(chain + begin, (end - begin) * 4);
    }

    // Header region, zero-padded to the first section.
    std::string header(static_cast<std::size_t>(trace_off), '\0');
    char *base = header.data();
    std::memcpy(base, kBundleMagic, sizeof(kBundleMagic));
    const std::uint32_t version = kBundleVersion3;
    storeBytes(base, 4, &version, 4);
    storeBytes(base, 8, &config_hash, 8);
    storeBytes(base, 16, &file_bytes, 8);
    storeBytes(base, 32, &count, 8);
    storeBytes(base, 40, &epoch, 8);
    const auto meta_count = static_cast<std::uint32_t>(meta.size());
    const auto name_len = static_cast<std::uint32_t>(name.size());
    const std::uint32_t num_cores = stream.numCores();
    storeBytes(base, 48, &meta_count, 4);
    storeBytes(base, 52, &num_cores, 4);
    storeBytes(base, 56, &name_len, 4);
    storeBytes(base, 60, &plane_count, 4);
    storeBytes(base, 64, &trace_off, 8);
    storeBytes(base, 72, &chain_off, 8);
    storeBytes(base, 80, &header_region, 8);
    storeBytes(base, 88, &kV3RecordStride, 4);
    std::uint64_t off = kV3HeaderBytes;
    for (const std::uint64_t word : meta) {
        storeBytes(base, off, &word, 8);
        off += 8;
    }
    std::memcpy(base + off, name.data(), name.size());
    off += name.size();
    for (std::uint64_t s = 0; s < segs; ++s) {
        storeBytes(base, off, &trace_fnv[s], 8);
        storeBytes(base, off + 8, &chain_fnv[s], 8);
        off += 16;
    }
    for (std::uint32_t p = 0; p < plane_count; ++p) {
        const CaptureAuxPlane &plane = aux->planes[p];
        const std::uint64_t codes_fnv =
            fnv1a64(plane.codes.data(), plane.codes.size());
        storeBytes(base, off, &plane.window, 8);
        storeBytes(base, off + 8, &plane.nearWindow, 8);
        storeBytes(base, off + 16, &codes_off[p], 8);
        storeBytes(base, off + 24, &codes_fnv, 8);
        off += 32;
    }
    casim_assert(off == header_region, "v3 header layout mismatch");
    const std::uint64_t header_fnv = v3HeaderFnv(base, header_region);
    storeBytes(base, 24, &header_fnv, 8);
    os.write(header.data(),
             static_cast<std::streamsize>(header.size()));

    // Data sections (second pack pass for the records).
    std::uint64_t cur = trace_off;
    const std::string zeros(kV3SectionAlign, '\0');
    const auto padTo = [&](std::uint64_t target) {
        while (cur < target) {
            const std::uint64_t n =
                std::min<std::uint64_t>(target - cur, zeros.size());
            os.write(zeros.data(), static_cast<std::streamsize>(n));
            cur += n;
        }
    };
    for (std::uint64_t from = 0; from < count;
         from += kChunkRecords) {
        const std::uint64_t n = std::min(kChunkRecords, count - from);
        packV3Records(stream, from, n, buffer);
        os.write(buffer.data(),
                 static_cast<std::streamsize>(
                     static_cast<std::size_t>(n) * kV3RecordStride));
        cur += n * kV3RecordStride;
    }
    if (chain != nullptr) {
        padTo(chain_off);
        os.write(reinterpret_cast<const char *>(chain),
                 static_cast<std::streamsize>(count * 4));
        cur += count * 4;
    }
    for (std::uint32_t p = 0; p < plane_count; ++p) {
        padTo(codes_off[p]);
        const CaptureAuxPlane &plane = aux->planes[p];
        os.write(reinterpret_cast<const char *>(plane.codes.data()),
                 static_cast<std::streamsize>(plane.codes.size()));
        cur += plane.codes.size();
    }
    padTo(file_bytes);
    return os.good();
}

bool
decodeCaptureBundleV3(std::shared_ptr<const MappedFile> file,
                      std::uint64_t expected_hash,
                      MappedCaptureBundle &out, std::string *error)
{
    const auto fail = [&](const char *what) {
        if (error != nullptr)
            *error = what;
        return false;
    };

    casim_assert(file != nullptr, "decodeCaptureBundleV3 needs a file");
    const std::uint8_t *base = file->data();
    const std::uint64_t size = file->size();
    if (size < kV3HeaderBytes)
        return fail("truncated bundle header");

    V3Header h;
    if (const char *what = decodeV3Fixed(base, h))
        return fail(what);
    if (h.headerRegionBytes < kV3HeaderBytes ||
        h.headerRegionBytes > size)
        return fail("truncated bundle header");
    if (v3HeaderFnv(base, h.headerRegionBytes) != h.headerFnv)
        return fail("bundle header checksum mismatch");
    if (h.configHash != expected_hash)
        return fail("config hash mismatch");

    std::vector<V3PlaneDesc> plane_descs;
    if (const char *what = checkV3Layout(h, base, size, plane_descs))
        return fail(what);
    // A read buffer is resident already, so verifying it costs one
    // pass; a mapping is verified only in paranoid builds, because
    // that pass would fault in every page a warm start never touches.
    if (!file->isMapped() || kVerifyMappedSections) {
        if (const char *what = verifyV3Sections(h, base, plane_descs))
            return fail(what);
    }

    std::vector<std::uint64_t> meta(h.metaCount);
    for (std::uint32_t m = 0; m < h.metaCount; ++m)
        meta[m] = loadScalar<std::uint64_t>(
            base, kV3HeaderBytes + std::uint64_t{m} * 8);
    const std::string name(
        reinterpret_cast<const char *>(base) + kV3HeaderBytes +
            std::uint64_t{h.metaCount} * 8,
        h.nameLen);

    file->adviseSequential();
    auto pager = std::make_shared<const TracePager>(
        file, static_cast<std::size_t>(h.traceOff),
        static_cast<std::size_t>(h.recordCount), kV3RecordStride,
        static_cast<std::size_t>(h.epochRecords));
    out.stream = Trace::view(
        name, h.numCores,
        h.recordCount == 0
            ? nullptr
            : reinterpret_cast<const MemAccess *>(base + h.traceOff),
        static_cast<std::size_t>(h.recordCount), file, pager);

    auto aux = std::make_shared<CaptureAuxView>();
    aux->count = h.recordCount;
    if (h.chainOff != 0)
        aux->nextUse =
            reinterpret_cast<const std::uint32_t *>(base + h.chainOff);
    aux->planes.reserve(plane_descs.size());
    for (const V3PlaneDesc &desc : plane_descs)
        aux->planes.push_back(
            {desc.window, desc.nearWindow, base + desc.codesOff});
    aux->keepAlive = std::move(file);
    out.aux = std::move(aux);
    out.meta = std::move(meta);
    if (error != nullptr)
        error->clear();
    return true;
}

} // namespace casim
