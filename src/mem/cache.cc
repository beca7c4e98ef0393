/**
 * @file
 * Implementation of the set-associative cache tag store.
 */

#include "mem/cache.hh"

#include <bit>
#include <cstring>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace casim {

namespace {

/** Bitmask with one bit set per way of a `ways`-associative set. */
constexpr std::uint64_t
fullSetMask(unsigned ways)
{
    return ways >= 64 ? ~0ULL : (1ULL << ways) - 1;
}

} // namespace

unsigned
CacheGeometry::numSets() const
{
    return static_cast<unsigned>(sizeBytes / (static_cast<std::uint64_t>(
                                     ways) * blockBytes));
}

void
CacheGeometry::check() const
{
    if (!isPowerOf2(blockBytes))
        casim_fatal("block size ", blockBytes, " is not a power of two");
    if (ways == 0 || ways > 64)
        casim_fatal("associativity ", ways, " out of range [1, 64]");
    if (sizeBytes % (static_cast<std::uint64_t>(ways) * blockBytes) != 0)
        casim_fatal("cache size ", sizeBytes,
                    " not divisible by ways*block");
    if (!isPowerOf2(numSets()))
        casim_fatal("set count ", numSets(), " is not a power of two");
}

Cache::Cache(std::string name, const CacheGeometry &geo,
             std::unique_ptr<ReplPolicy> policy, CacheShard shard,
             bool payload)
    : name_(std::move(name)), geo_(geo), shard_(shard),
      policy_(std::move(policy)),
      stats_(name_),
      hits_(stats_.addCounter("demand_hits", "demand accesses that hit")),
      misses_(stats_.addCounter("demand_misses",
                                "demand accesses that missed")),
      fills_(stats_.addCounter("fills", "blocks installed")),
      evictions_(stats_.addCounter("evictions",
                                   "blocks replaced by fills")),
      dirtyEvictions_(stats_.addCounter("dirty_evictions",
                                        "replaced blocks that were dirty")),
      extInvalidations_(stats_.addCounter(
          "ext_invalidations", "blocks removed by back-invalidation")),
      writeHits_(stats_.addCounter("write_hits", "demand store hits")),
      writeMisses_(stats_.addCounter("write_misses",
                                     "demand store misses"))
{
    geo_.check();
    casim_assert(policy_ != nullptr, "cache needs a replacement policy");
    casim_assert(policy_->numSets() == geo_.numSets() &&
                     policy_->numWays() == geo_.ways,
                 "policy geometry mismatch for cache ", name_);
    casim_assert(shard_.bits < 32 &&
                     shard_.index < (1u << shard_.bits),
                 "bad cache shard {", shard_.bits, ", ", shard_.index,
                 "} for cache ", name_);
    // A shard owns every global set whose low `bits` index bits equal
    // its index, so the local set index is the global one with those
    // bits shifted off — fold the shift into the block offset shift.
    setShift_ = floorLog2(geo_.blockBytes) + shard_.bits;
    setMask_ = geo_.numSets() - 1;
    tagStride_ = simd::tagRowStride(geo_.ways);
    simdActive_ = simd::vectorTagScanEnabled();
    tags_.assign(static_cast<std::size_t>(geo_.numSets()) * tagStride_,
                 kAddrInvalid);
    valid_.assign(geo_.numSets(), 0);
    dirty_.assign(geo_.numSets(), 0);
    if (payload)
        allocatePayload();
}

void
Cache::allocatePayload()
{
    if (hasPayload())
        return;
    casim_assert(validBlocks() == 0, "residency payload allocated on ",
                 "non-empty cache ", name_);
    blocks_.resize(static_cast<std::size_t>(geo_.numSets()) * geo_.ways);
}

void
Cache::setObserver(CacheObserver *observer)
{
    casim_assert(observer == nullptr || hasPayload(), "observer on cache ",
                 name_, " without a residency payload");
    observer_ = observer;
}

unsigned
Cache::setIndex(Addr block_addr) const
{
    return static_cast<unsigned>((block_addr >> setShift_) & setMask_);
}

unsigned
Cache::findWay(unsigned set, Addr block_addr) const
{
    const Addr *row = &tags_[tagSlot(set, 0)];
    const std::uint64_t live = valid_[set];
    const unsigned way =
        simdActive_
            ? simd::findTagVector(row, tagStride_, live, block_addr)
            : simd::findTagScalar(row, live, block_addr);
#ifdef CASIM_PARANOID
    // The scalar scan is the reference semantics; every vector lookup
    // must agree with it way for way.
    casim_assert(way == simd::findTagScalar(row, live, block_addr),
                 "SIMD tag scan (", simd::tagScanIsa(),
                 ") disagrees with the scalar scan in ", name_,
                 " set ", set);
#endif
    return way == simd::kNoWay ? geo_.ways : way;
}

void
Cache::paranoidCheckSet([[maybe_unused]] unsigned set) const
{
#ifdef CASIM_PARANOID
    casim_assert((dirty_[set] & ~valid_[set]) == 0,
                 "dirty bitmap marks a free way in ", name_, " set ",
                 set);
    for (unsigned way = 0; way < geo_.ways; ++way) {
        const bool live = (valid_[set] >> way) & 1;
        const Addr tag = tags_[tagSlot(set, way)];
        if (live)
            casim_assert(tag != kAddrInvalid && setIndex(tag) == set,
                         "live tag outside its set in ", name_, " set ",
                         set, " way ", way);
        else
            casim_assert(tag == kAddrInvalid,
                         "free way keeps a stale tag in ", name_,
                         " set ", set, " way ", way);
        if (!hasPayload())
            continue;
        const CacheBlock &block = slot(set, way);
        casim_assert(block.valid == live,
                     "tag-store valid bit desynchronized in ", name_,
                     " set ", set, " way ", way);
        casim_assert(block.dirty ==
                         static_cast<bool>((dirty_[set] >> way) & 1),
                     "dirty bitmap desynchronized in ", name_,
                     " set ", set, " way ", way);
        if (live)
            casim_assert(tag == block.addr,
                         "tag-store address desynchronized in ", name_,
                         " set ", set, " way ", way);
    }
    for (unsigned pad = geo_.ways; pad < tagStride_; ++pad)
        casim_assert(tags_[tagSlot(set, pad)] == kAddrInvalid,
                     "tag-row pad lane clobbered in ", name_, " set ",
                     set, " lane ", pad);
#endif
}

void
Cache::paranoidCheckRoute([[maybe_unused]] Addr block_addr) const
{
#ifdef CASIM_PARANOID
    if (shard_.bits == 0)
        return;
    const unsigned low = static_cast<unsigned>(
        (block_addr >> floorLog2(geo_.blockBytes)) &
        ((1u << shard_.bits) - 1));
    casim_assert(low == shard_.index, "address ", block_addr,
                 " routed to wrong shard ", shard_.index, " of cache ",
                 name_);
#endif
}

CacheBlock *
Cache::probe(Addr block_addr)
{
    const unsigned set = setIndex(block_addr);
    const unsigned way = findWay(set, block_addr);
    return way == geo_.ways ? nullptr : &blockAt(set, way);
}

const CacheBlock *
Cache::probe(Addr block_addr) const
{
    const unsigned set = setIndex(block_addr);
    const unsigned way = findWay(set, block_addr);
    return way == geo_.ways ? nullptr : &blockAt(set, way);
}

Cache::Lookup
Cache::access(const ReplContext &ctx)
{
    paranoidCheckRoute(ctx.blockAddr);
    const unsigned set = setIndex(ctx.blockAddr);
    const unsigned way = findWay(set, ctx.blockAddr);
    if (way == geo_.ways) {
        ++misses_;
        if (ctx.isWrite)
            ++writeMisses_;
        if (observer_ != nullptr)
            observer_->onMiss(ctx);
        return {};
    }

    ++hits_;
    if (ctx.isWrite)
        ++writeHits_;
    policy_->onHit(set, way, ctx);
    if (!hasPayload())
        return {true, nullptr};
    // An observer implies the payload (setObserver asserts it), so
    // its notification rides under the same branch.
    CacheBlock &block = slot(set, way);
    block.touchedMask |= 1ULL << ctx.core;
    block.writtenDuringResidency |= ctx.isWrite;
    ++block.hitsDuringResidency;
    if (observer_ != nullptr)
        observer_->onHit(block, ctx);
    return {true, &block};
}

CacheBlock *
Cache::fill(const ReplContext &ctx, const VictimHandler &on_victim)
{
    paranoidCheckRoute(ctx.blockAddr);
    const unsigned set = setIndex(ctx.blockAddr);
#ifdef CASIM_PARANOID
    // A full-set scan per fill is too expensive for release replays;
    // paranoid builds keep it to catch double fills.
    casim_assert(findWay(set, ctx.blockAddr) == geo_.ways,
                 "fill of already-resident block in ", name_);
    paranoidCheckSet(set);
#endif

    // Prefer an invalid way; otherwise consult the policy.
    const std::uint64_t free_ways =
        ~valid_[set] & fullSetMask(geo_.ways);
    const bool evicting = free_ways == 0;
    unsigned way;
    if (!evicting) {
        way = static_cast<unsigned>(std::countr_zero(free_ways));
    } else {
        way = policy_->victim(set, ctx, 0);
        casim_assert(way < geo_.ways, "policy returned bad way");
        // The victim's payload line is about to be overwritten and is
        // usually cache-cold; start its ownership request now so the
        // install stores below don't back up the store buffer waiting
        // for it.
        if (hasPayload())
            __builtin_prefetch(&slot(set, way), 1);
        ++evictions_;
        if ((dirty_[set] >> way) & 1)
            ++dirtyEvictions_;
        policy_->onEvict(set, way);
    }

    // Every per-block write of the install is payload maintenance; a
    // payload-free cache updates the mirrors below and nothing else.
    CacheBlock *block = nullptr;
    if (hasPayload()) {
        block = &slot(set, way);
        if (evicting) {
            // The victim handler and the observer see the victim
            // intact.  Nobody can see it between here and the install
            // below, which overwrites every block field and every
            // per-set mirror, so the victim line is never cleared
            // first.  The handler must not touch this cache (the
            // hierarchy's handlers only reach the other level).
            if (on_victim)
                on_victim(*block, set, way);
            if (observer_ != nullptr)
                observer_->onResidencyEnd(*block);
        }
        install(*block, ctx);
    } else {
        casim_assert(!on_victim, "victim handler on cache ", name_,
                     " without a residency payload");
    }
    tags_[tagSlot(set, way)] = ctx.blockAddr;
    valid_[set] |= 1ULL << way;
    if (ctx.isWrite)
        dirty_[set] |= 1ULL << way;
    else
        dirty_[set] &= ~(1ULL << way);
    ++fills_;
    policy_->onFill(set, way, ctx);
    if (observer_ != nullptr)
        observer_->onFill(*block, ctx);
    return block;
}

void
Cache::install(CacheBlock &block, const ReplContext &ctx)
{
    // Compose the installed state in a stack temporary and copy it
    // over in one memcpy instead of 13 field writes: the compiler
    // emits a few wide vector stores, which matters because the
    // victim line is usually cache-cold and a dozen narrow stores to
    // it would occupy store-buffer entries for the whole ownership
    // miss.
    const CacheBlock installed{
        .addr = ctx.blockAddr,
        .valid = true,
        .dirty = ctx.isWrite,
        .state = MesiState::Invalid, // protocol code sets this
        .sharers = 0,
        .touchedMask = 1ULL << ctx.core,
        .writtenDuringResidency = ctx.isWrite,
        .hitsDuringResidency = 0,
        .fillSeq = ctx.seq,
        .fillPC = ctx.pc,
        .fillCore = ctx.core,
        .predictedShared = ctx.predictedShared,
        .prefetched = false,
    };
    std::memcpy(&block, &installed, sizeof(block));
}

void
Cache::setBlockDirty(CacheBlock &block, bool dirty)
{
    const auto flat = static_cast<std::size_t>(&block - blocks_.data());
    casim_assert(flat < blocks_.size() && block.valid,
                 "setBlockDirty on a block not resident in ", name_);
    // A resident block sits in its address's set, so the set comes
    // from the address bits and the way from the slot offset — no
    // runtime divide by the associativity on this per-reference path.
    const unsigned set = setIndex(block.addr);
    const auto way = static_cast<unsigned>(
        flat - static_cast<std::size_t>(set) * geo_.ways);
#ifdef CASIM_PARANOID
    casim_assert(way < geo_.ways && &slot(set, way) == &block,
                 "setBlockDirty block outside its address's set in ",
                 name_);
#endif
    block.dirty = dirty;
    if (dirty)
        dirty_[set] |= 1ULL << way;
    else
        dirty_[set] &= ~(1ULL << way);
}

bool
Cache::invalidate(Addr block_addr)
{
    const unsigned set = setIndex(block_addr);
    const unsigned way = findWay(set, block_addr);
    if (way == geo_.ways)
        return false;
    policy_->onInvalidate(set, way);
    if (hasPayload()) {
        CacheBlock &block = slot(set, way);
        if (observer_ != nullptr)
            observer_->onResidencyEnd(block);
        block.invalidate();
    }
    ++extInvalidations_;
    tags_[tagSlot(set, way)] = kAddrInvalid;
    valid_[set] &= ~(1ULL << way);
    dirty_[set] &= ~(1ULL << way);
    return true;
}

void
Cache::flushResidencies()
{
    for (unsigned set = 0; set < geo_.numSets(); ++set) {
        paranoidCheckSet(set);
        std::uint64_t live = valid_[set];
        while (live != 0) {
            const unsigned way =
                static_cast<unsigned>(std::countr_zero(live));
            live &= live - 1;
            if (hasPayload()) {
                CacheBlock &block = slot(set, way);
                if (observer_ != nullptr)
                    observer_->onResidencyEnd(block);
                block.invalidate();
            }
            tags_[tagSlot(set, way)] = kAddrInvalid;
        }
        valid_[set] = 0;
        dirty_[set] = 0;
    }
}

std::size_t
Cache::validBlocks() const
{
    std::size_t count = 0;
    for (const std::uint64_t mask : valid_)
        count += popCount(mask);
    return count;
}

} // namespace casim
