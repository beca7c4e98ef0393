/**
 * @file
 * Read-only whole-file buffers for the out-of-core trace substrate.
 *
 * MappedFile holds one file's bytes, either as a read-only private
 * mapping (map(), the default) or as an owned buffer the file was read
 * into (read(), the CASIM_NO_MMAP path); the CCAP v3 decoder runs the
 * same code over both.  TracePager turns record-unit ranges of a trace
 * section into page-clamped madvise() calls; and PageCursor is the
 * forward streaming helper the replay loops thread a trace position
 * through, so a replay of a mapped bundle keeps only
 * O(epoch + window) trace pages resident: as the cursor crosses an
 * epoch boundary it MADV_WILLNEEDs the next epoch and (optionally)
 * MADV_DONTNEEDs the epochs it has finished.  All advice is a pure
 * hint on a read-only private file mapping — dropped pages refault
 * from the page cache with identical content — so the advised and
 * unadvised paths are byte-identical by construction.  A read buffer
 * takes no advice at all: MADV_DONTNEED on anonymous memory would
 * zero-fill it.
 *
 * CASIM_NO_MMAP (a CMake option and an environment variable, mirroring
 * CASIM_NO_SIMD) makes callers read bundles instead of mapping them.
 */

#ifndef CASIM_TRACE_MMAP_FILE_HH
#define CASIM_TRACE_MMAP_FILE_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

namespace casim {

/**
 * True when memory-mapped trace I/O is disabled, either compiled out
 * (-DCASIM_NO_MMAP) or switched off at run time by a non-empty
 * CASIM_NO_MMAP environment variable.  Cached per process.
 */
bool mmapDisabled();

/**
 * A whole file's bytes, read-only: a private mapping or an owned
 * buffer.  Both backings expose the same data()/size(), aligned to at
 * least 4096 bytes, so every page-aligned section can hold MemAccess
 * records in place.
 */
class MappedFile
{
  public:
    /**
     * Map `path` read-only; returns null and sets `error` on failure
     * ("cannot open" for a missing or unreadable file; empty file,
     * mmap failure).
     */
    static std::shared_ptr<const MappedFile>
    map(const std::string &path, std::string *error = nullptr);

    /**
     * Read all of `path` into an owned 4096-aligned buffer; failures
     * as for map() ("cannot open", empty file, short read).
     */
    static std::shared_ptr<const MappedFile>
    read(const std::string &path, std::string *error = nullptr);

    ~MappedFile();

    MappedFile(const MappedFile &) = delete;
    MappedFile &operator=(const MappedFile &) = delete;

    /** First mapped byte. */
    const std::uint8_t *data() const { return data_; }

    /** Length in bytes (the file size at map or read time). */
    std::size_t size() const { return size_; }

    /** True for a mapping, false for a read buffer. */
    bool isMapped() const { return mapped_; }

    /** Hint sequential access over the whole mapping. */
    void adviseSequential() const;

    /**
     * Hint that [offset, offset + len) will be needed soon.  The range
     * is clamped outward to page boundaries and to the mapping.  Like
     * every hint here, a no-op on a read buffer.
     */
    void willNeed(std::size_t offset, std::size_t len) const;

    /**
     * Hint that [offset, offset + len) is no longer needed.  Clamped
     * inward to whole pages so a page shared with a neighbouring range
     * is never dropped.  Data stays valid either way: dropped pages
     * refault with identical content.
     */
    void dontNeed(std::size_t offset, std::size_t len) const;

  private:
    MappedFile(const std::uint8_t *data, std::size_t size, bool mapped);

    const std::uint8_t *data_ = nullptr;
    std::size_t size_ = 0;
    bool mapped_ = true;
};

/**
 * Record-unit paging over the trace section of a mapped capture
 * bundle: converts [from_record, to_record) ranges into byte-range
 * advice on the underlying mapping.  Shared (via shared_ptr) between
 * the Trace view and every index built over it.
 */
class TracePager
{
  public:
    /**
     * @param file          The mapping the trace section lives in.
     * @param trace_offset  Byte offset of record 0 in the mapping.
     * @param record_count  Records in the section.
     * @param record_stride Bytes per record.
     * @param epoch_records Records per epoch segment (>= 1).
     */
    TracePager(std::shared_ptr<const MappedFile> file,
               std::size_t trace_offset, std::size_t record_count,
               std::size_t record_stride, std::size_t epoch_records);

    /** Records per epoch segment. */
    std::size_t epochRecords() const { return epochRecords_; }

    /** Records in the trace section. */
    std::size_t recordCount() const { return recordCount_; }

    /** Advise that records [from, to) will be needed soon. */
    void willNeedRecords(std::size_t from, std::size_t to) const;

    /** Advise that records [from, to) are done (DONTNEED, clamped). */
    void releaseRecords(std::size_t from, std::size_t to) const;

  private:
    std::shared_ptr<const MappedFile> file_;
    std::size_t traceOffset_ = 0;
    std::size_t recordCount_ = 0;
    std::size_t recordStride_ = 0;
    std::size_t epochRecords_ = 1;
};

/**
 * Forward streaming cursor over a paged trace: the replay loops call
 * touch(i) with non-decreasing record indices; on crossing into epoch
 * e the cursor prefetches epoch e+1 and (when retiring) releases every
 * epoch before e.  A null pager makes every call a no-op, so the same
 * loops serve owned (fully resident) traces unchanged.
 */
class PageCursor
{
  public:
    /**
     * @param pager  The trace's pager, or null for a resident trace.
     * @param retire Whether finished epochs should be released; a pass
     *               that will re-read the trace (the sharded counting
     *               pass, index builds) keeps them.
     */
    explicit PageCursor(const TracePager *pager, bool retire = true)
        : pager_(pager), retire_(retire)
    {
        if (pager_ == nullptr || pager_->recordCount() == 0)
            return;
        const std::size_t epoch = pager_->epochRecords();
        pager_->willNeedRecords(
            0, std::min(2 * epoch, pager_->recordCount()));
        boundary_ = epoch;
    }

    /** Note that record `i` is about to be read; cheap when inside the
     *  current epoch (one compare). */
    void
    touch(std::size_t i)
    {
        if (i < boundary_)
            return;
        advance(i);
    }

  private:
    void advance(std::size_t i);

    const TracePager *pager_ = nullptr;
    /** First record index outside the already-advised range. */
    std::size_t boundary_ = static_cast<std::size_t>(-1);
    /** First record of the oldest epoch not yet released. */
    std::size_t retired_ = 0;
    bool retire_ = true;
};

} // namespace casim

#endif // CASIM_TRACE_MMAP_FILE_HH
