/**
 * @file
 * A set-associative cache tag store with pluggable replacement and
 * residency observation hooks.
 *
 * The same class backs the private L1s and the shared LLC; protocol
 * logic (MESI, inclusion, the directory) lives in Hierarchy, and the
 * sharing study attaches to the LLC through CacheObserver.
 */

#ifndef CASIM_MEM_CACHE_HH
#define CASIM_MEM_CACHE_HH

#include <bit>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/simd.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mem/block.hh"
#include "mem/repl/policy.hh"

namespace casim {

/** Geometry of a set-associative cache. */
struct CacheGeometry
{
    /** Total capacity in bytes. */
    std::uint64_t sizeBytes = 4 * 1024 * 1024;

    /** Associativity. */
    unsigned ways = 16;

    /** Line size in bytes (power of two). */
    unsigned blockBytes = kBlockBytes;

    /** Number of sets implied by the fields above. */
    unsigned numSets() const;

    /** Validate and die with a helpful message on bad geometry. */
    void check() const;
};

/**
 * Identifies one set shard of a larger cache.
 *
 * The sharded replay engine partitions a K-way-larger cache's sets by
 * their low log2(K) set-index bits: shard `index` owns every global set
 * whose low bits equal `index`, and a shard-local Cache (built with
 * 1/K of the global capacity) maps a block address to local set
 * `globalSet >> bits`.  Selecting by the LOW bits is what makes this
 * work with a plain shift: dropping them leaves the HIGH set bits,
 * which are exactly the local set index.  The default {0, 0} is an
 * unsharded cache.
 */
struct CacheShard
{
    /** log2 of the shard count (0 = unsharded). */
    unsigned bits = 0;

    /** This shard's index in [0, 2^bits). */
    unsigned index = 0;
};

/**
 * Observer of residency lifecycle events, used by the sharing study.
 *
 * Events refer to demand activity only; writebacks and directory
 * maintenance are invisible here.
 */
class CacheObserver
{
  public:
    virtual ~CacheObserver() = default;

    /** A demand access hit `block`. */
    virtual void
    onHit(const CacheBlock &block, const ReplContext &ctx)
    {
        (void)block;
        (void)ctx;
    }

    /** A demand access missed. */
    virtual void onMiss(const ReplContext &ctx) { (void)ctx; }

    /** `block` was just installed by a fill. */
    virtual void
    onFill(const CacheBlock &block, const ReplContext &ctx)
    {
        (void)block;
        (void)ctx;
    }

    /**
     * `block`'s residency ended (replacement, external invalidation, or
     * the end-of-run flush).  The block still carries its full
     * residency instrumentation.
     */
    virtual void onResidencyEnd(const CacheBlock &block) { (void)block; }
};

/**
 * Set-associative cache with demand access / fill / invalidate ops.
 *
 * The tag store (packed tags, valid and dirty bitmaps, the policy and
 * the counters) decides every hit, miss and victim.  The per-way
 * CacheBlock array — the residency payload: MESI state, directory,
 * touch masks, fill metadata — is optional.  Without it the cache
 * still produces identical counts, but no CacheBlock exists to hand
 * out: access() and fill() return no block, blockAt() and probe()
 * fail an assertion, and no observer or victim handler may attach.
 * A replay that only reads the counters skips the payload's memory
 * and its per-hit and per-fill writes.
 */
class Cache
{
  public:
    /** Outcome of a demand access. */
    struct Lookup
    {
        /** True iff the access hit. */
        bool hit = false;

        /**
         * The hit block; nullptr on a miss and on a cache without the
         * residency payload.
         */
        CacheBlock *block = nullptr;
    };

    /**
     * Called with the victim block before a fill overwrites it.  The
     * victim's set and way are passed explicitly so handlers never have
     * to recover them from the reference (which would tie the contract
     * to the victim aliasing the tag array).  A handler must not touch
     * the cache being filled: without an observer, fill() installs over
     * the victim without clearing it first.
     */
    using VictimHandler =
        std::function<void(const CacheBlock &, unsigned set, unsigned way)>;

    /**
     * @param name   Instance name used as the stats prefix (e.g. "llc").
     * @param geo    Cache geometry; validated here.  With a non-trivial
     *               `shard` this is the shard-LOCAL geometry (1/2^bits
     *               of the global capacity, same ways and block size).
     * @param policy Replacement policy sized for this geometry.
     * @param shard  Set shard this instance implements; {0, 0} (the
     *               default) indexes the full set range.
     * @param payload Whether to allocate the residency payload now;
     *               without it see allocatePayload().
     */
    Cache(std::string name, const CacheGeometry &geo,
          std::unique_ptr<ReplPolicy> policy, CacheShard shard = {},
          bool payload = true);

    /**
     * Allocate the residency payload of a cache built without it.
     * The cache must hold no block yet (a resident block's residency
     * fields would be unknown).  No-op if the payload exists.
     */
    void allocatePayload();

    /** True iff the cache maintains the per-way CacheBlock array. */
    bool hasPayload() const { return !blocks_.empty(); }

    /**
     * Attach an observer for residency events (may be nullptr).  The
     * events carry blocks, so the cache must have the payload.
     */
    void setObserver(CacheObserver *observer);

    /** Set index for a block-aligned address. */
    unsigned setIndex(Addr block_addr) const;

    /**
     * Mutable lookup without any state change; nullptr on miss.
     * Needs the payload on a hit (see blockAt).
     */
    CacheBlock *probe(Addr block_addr);

    /** Const lookup without any state change; nullptr on miss. */
    const CacheBlock *probe(Addr block_addr) const;

    /**
     * Perform a demand access.  On a hit the replacement state (and,
     * with the payload, the residency instrumentation) is updated; on
     * a miss the caller is expected to fill().
     */
    Lookup access(const ReplContext &ctx);

    /**
     * Install the block described by ctx, evicting an existing block if
     * the set is full.  The victim handler (if any) runs before the
     * overwrite so the caller can write back or back-invalidate; it
     * needs the payload.
     *
     * @return The freshly installed block, or nullptr on a cache
     *         without the residency payload.
     */
    CacheBlock *fill(const ReplContext &ctx,
                     const VictimHandler &on_victim = nullptr);

    /**
     * Externally remove a block (coherence back-invalidation).  No-op
     * if the block is absent.
     *
     * @return True iff the block was present and removed.
     */
    bool invalidate(Addr block_addr);

    /**
     * Update a resident block's dirty flag.  `block` must be a
     * reference previously returned by this cache (probe/access/fill).
     * Protocol code must use this instead of writing block.dirty
     * directly so the per-set dirty bitmap stays in sync with the
     * field (the replacement path counts dirty evictions from the
     * bitmap alone).
     */
    void setBlockDirty(CacheBlock &block, bool dirty);

    /**
     * End all outstanding residencies, reporting each to the observer.
     * Called once at the end of a simulation so residency-attributed
     * statistics cover every block.
     */
    void flushResidencies();

    /** Number of currently valid blocks. */
    std::size_t validBlocks() const;

    /** Instance name. */
    const std::string &name() const { return name_; }

    /** Geometry. */
    const CacheGeometry &geometry() const { return geo_; }

    /** The replacement policy (for tests and wrappers). */
    ReplPolicy &policy() { return *policy_; }
    const ReplPolicy &policy() const { return *policy_; }

    /** Statistics group (hits, misses, fills, evictions, ...). */
    stats::StatGroup &stats() { return stats_; }
    const stats::StatGroup &stats() const { return stats_; }

    /** Demand hits so far. */
    std::uint64_t demandHits() const { return hits_.value(); }

    /** Demand misses so far. */
    std::uint64_t demandMisses() const { return misses_.value(); }

    /** Demand accesses so far. */
    std::uint64_t
    demandAccesses() const
    {
        return hits_.value() + misses_.value();
    }

    /**
     * Block slot at (set, way); exposed for protocol code, the
     * awareness scorer and tests.  Asserts that the cache has the
     * payload.
     */
    CacheBlock &
    blockAt(unsigned set, unsigned way)
    {
        checkPayload();
        return slot(set, way);
    }

    const CacheBlock &
    blockAt(unsigned set, unsigned way) const
    {
        checkPayload();
        return slot(set, way);
    }

  private:
    /** Panic unless the cache has the residency payload. */
    void
    checkPayload() const
    {
        casim_assert(hasPayload(), "cache ", name_,
                     " has no residency payload");
    }

    /** Unchecked payload slot at (set, way). */
    CacheBlock &
    slot(unsigned set, unsigned way)
    {
        return blocks_[static_cast<std::size_t>(set) * geo_.ways + way];
    }

    const CacheBlock &
    slot(unsigned set, unsigned way) const
    {
        return blocks_[static_cast<std::size_t>(set) * geo_.ways + way];
    }

    /** Way of block_addr within its set, or geo_.ways if absent. */
    unsigned findWay(unsigned set, Addr block_addr) const;

    /** Overwrite `block` with the fresh residency ctx starts. */
    static void install(CacheBlock &block, const ReplContext &ctx);

    /**
     * Verify one set's mirrors: the dirty bitmap lies within the valid
     * one, free ways and pad lanes hold kAddrInvalid, and every live
     * tag routes to the set; with the payload, that the blocks agree
     * with the mirrors too.  Compiled away unless CASIM_PARANOID is
     * defined.
     */
    void paranoidCheckSet(unsigned set) const;

    /** Panic if `block_addr` does not route to this shard. */
    void paranoidCheckRoute(Addr block_addr) const;

    std::string name_;
    CacheGeometry geo_;
    CacheShard shard_;
    unsigned setShift_;
    unsigned setMask_;
    std::unique_ptr<ReplPolicy> policy_;

    /**
     * Lookup-critical tag state, split out of CacheBlock so findWay
     * scans contiguous memory: tags_[set * tagStride_ + way] mirrors
     * blocks_[...].addr, and bit `way` of valid_[set] mirrors
     * blocks_[...].valid.  Rows are padded to tagStride_ =
     * simd::tagRowStride(ways) so the vector kernels always load full
     * lanes; pad slots hold kAddrInvalid and are never valid.  The
     * instrumentation-heavy CacheBlock array is only touched on hits,
     * fills and evictions, and only when the cache has it.
     */
    std::vector<Addr> tags_;
    std::vector<std::uint64_t> valid_;

    /**
     * Bit `way` of dirty_[set] mirrors blocks_[...].dirty.  Kept so
     * the replacement path can count dirty evictions without loading
     * the victim's (cold, cache-missing) CacheBlock line — with no
     * observer attached, eviction then touches the victim line with
     * stores only, which never stall the pipeline the way the load
     * did.  All dirty-flag writers must go through fill() or
     * setBlockDirty() to keep the mirror in sync (paranoid builds
     * assert it).
     */
    std::vector<std::uint64_t> dirty_;

    /** Addr slots per padded tag row (see tags_). */
    unsigned tagStride_;

    /** Flat tags_/valid_-aligned index of (set, way). */
    std::size_t
    tagSlot(unsigned set, unsigned way) const
    {
        return static_cast<std::size_t>(set) * tagStride_ + way;
    }

    /**
     * Whether findWay uses the vector kernel; resolved once at
     * construction from the compiled ISA, the CPU, and CASIM_NO_SIMD.
     */
    bool simdActive_;

    /** The residency payload; empty on a payload-free cache. */
    std::vector<CacheBlock> blocks_;
    CacheObserver *observer_ = nullptr;

    stats::StatGroup stats_;
    stats::Counter &hits_;
    stats::Counter &misses_;
    stats::Counter &fills_;
    stats::Counter &evictions_;
    stats::Counter &dirtyEvictions_;
    stats::Counter &extInvalidations_;
    stats::Counter &writeHits_;
    stats::Counter &writeMisses_;
};

} // namespace casim

#endif // CASIM_MEM_CACHE_HH
