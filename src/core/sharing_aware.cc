/**
 * @file
 * Implementation of the sharing-aware victim filter.
 */

#include "core/sharing_aware.hh"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/logging.hh"
#include "common/rng.hh"

namespace casim {

SharingAwareWrapper::SharingAwareWrapper(std::unique_ptr<ReplPolicy> base,
                                         unsigned pre_rounds,
                                         unsigned post_rounds,
                                         double quota, bool dueling,
                                         bool demote_private)
    : ReplPolicy(base->numSets(), base->numWays()),
      base_(std::move(base)), preRounds_(pre_rounds),
      postRounds_(post_rounds != 0
                      ? post_rounds
                      : std::max(1u, pre_rounds / 4)),
      maxProtected_(std::max(
          1u, static_cast<unsigned>(quota * numWays() + 0.5))),
      dueling_(dueling), demotePrivate_(demote_private),
      roles_(numSets(), Role::Follower), sets_(numSets()),
      fillCore_(static_cast<std::size_t>(numSets()) * numWays(), 0),
      expiry_(static_cast<std::size_t>(numSets()) * numWays(), 0)
{
    casim_assert(preRounds_ >= 1, "protection needs at least one round");
    casim_assert(quota > 0.0 && quota <= 1.0,
                 "protection quota must be in (0, 1]");
    casim_assert(numWays() <= 64, "way masks hold at most 64 ways");
    if (dueling_) {
        // Pick the leader sets by a hash of the set index rather than
        // a fixed stride: strided leaders can alias with the regular
        // region layouts of array codes (e.g. a hot Zipf head that
        // occupies the low sets), and a biased leader sample makes the
        // PSEL mispredict what protection does to the followers.
        const unsigned leaders_per_policy =
            numSets() >= 256 ? 64
                             : std::max(1u, numSets() / 4);
        const unsigned total_leaders =
            std::min(numSets(), 2 * leaders_per_policy);
        // mix64 is a bijection, so the keys are distinct and only the
        // first total_leaders of the order need sorting.
        std::vector<std::pair<std::uint64_t, unsigned>> order(numSets());
        for (unsigned set = 0; set < numSets(); ++set)
            order[set] = {mix64(set ^ 0x5a5a), set};
        std::partial_sort(order.begin(), order.begin() + total_leaders,
                          order.end());
        for (unsigned k = 0; k < total_leaders; ++k) {
            roles_[order[k].second] =
                (k % 2 == 0) ? Role::OnLeader : Role::OffLeader;
        }
    }
}

bool
SharingAwareWrapper::protectionActive(unsigned set) const
{
    if (!dueling_)
        return true;
    switch (roles_[set]) {
      case Role::OnLeader:
        return true;
      case Role::OffLeader:
        return false;
      case Role::Follower:
      default:
        return followersProtect();
    }
}

unsigned
SharingAwareWrapper::protectedWays(unsigned set) const
{
    const SetState &st = sets_[set];
    const std::uint64_t *expiry = &expiry_[flat(set, 0)];
    unsigned count = 0;
    for (std::uint64_t bits = st.protect; bits != 0; bits &= bits - 1)
        count += st.clock < expiry[std::countr_zero(bits)] ? 1 : 0;
    return count;
}

bool
SharingAwareWrapper::isProtected(unsigned set, unsigned way) const
{
    return (sets_[set].protect >> way) & 1 &&
           sets_[set].clock < expiry_[flat(set, way)];
}

unsigned
SharingAwareWrapper::victim(unsigned set, const ReplContext &ctx,
                            std::uint64_t exclude)
{
    SetState &st = sets_[set];
    const std::uint64_t now = ++st.clock;

    // The dueling decision gates victim filtering as well as grants:
    // once the selector learns protection hurts, protections granted
    // earlier (and kept alive by hit refreshes) must stop vetoing
    // victims immediately.
    std::uint64_t protect_mask = 0;
    std::uint64_t demote_mask = 0;
    if (protectionActive(set)) {
        demote_mask = st.demoted;
        const std::uint64_t *expiry = &expiry_[flat(set, 0)];
        for (std::uint64_t bits = st.protect; bits != 0;
             bits &= bits - 1) {
            const unsigned way = std::countr_zero(bits);
            if (now >= expiry[way])
                st.protect &= ~(1ULL << way);
        }
        protect_mask = st.protect;
    }

    const std::uint64_t all =
        numWays() >= 64 ? ~0ULL : ((1ULL << numWays()) - 1);

    // Victim preference order: (1) among demoted not-shared fills —
    // but only while the set actually holds protected shared blocks,
    // because the point of demotion is to retain shared data at the
    // expense of private data, not to act as a standalone dead-block
    // heuristic; (2) among non-protected ways; (3) anything the caller
    // allows.  Each step falls through when it would exclude every
    // candidate.
    const std::uint64_t prefer_demoted =
        exclude | (all & ~demote_mask);
    if (protect_mask != 0 && demote_mask != 0 &&
        (prefer_demoted & all) != all) {
        ++demotedVictims_;
        return base_->victim(set, ctx, prefer_demoted);
    }

    std::uint64_t combined = exclude | protect_mask;
    if ((combined & all) == all) {
        // Every candidate is protected: fall back to the caller's
        // exclusions only, otherwise the set would deadlock.
        ++saturatedSets_;
        combined = exclude;
    }

    // Note: victim() may mutate base-policy state (RRIP aging), so the
    // base is consulted exactly once per victimisation.
    const unsigned way = base_->victim(set, ctx, combined);
    if (combined != exclude)
        ++filteredVictims_;
    return way;
}

void
SharingAwareWrapper::onFill(unsigned set, unsigned way,
                            const ReplContext &ctx)
{
    base_->onFill(set, way, ctx);
    // A fill means this set missed: leaders vote for or against
    // protection with their misses.
    if (dueling_) {
        if (roles_[set] == Role::OnLeader && psel_ < kPselMax)
            ++psel_;
        else if (roles_[set] == Role::OffLeader && psel_ > 0)
            --psel_;
    }
    SetState &st = sets_[set];
    const std::uint64_t bit = 1ULL << way;
    // The way being filled cannot itself be protected (onEvict or
    // onInvalidate ran first), so the quota check counts the others.
    st.protect &= ~bit;
    const bool grant = ctx.predictedShared && protectionActive(set) &&
                       protectedWays(set) < maxProtected_;
    st.protect |= grant ? bit : 0;
    // The demotion bit is pure label state, never gated by the dueling
    // decision at fill time: gating it would leave a mix of demoted
    // and non-demoted private blocks behind every PSEL flip, and the
    // resulting age-based victim split acts like bimodal insertion —
    // gains that have nothing to do with sharing.  victim() gates its
    // *use* instead.
    const bool demote = demotePrivate_ && !ctx.predictedShared;
    st.demoted = (st.demoted & ~bit) | (demote ? bit : 0);
    st.sharedSeen &= ~bit;
    const std::size_t f = flat(set, way);
    fillCore_[f] = ctx.core;
    expiry_[f] = expiryFor(st, way, st.clock);
}

void
SharingAwareWrapper::onHit(unsigned set, unsigned way,
                           const ReplContext &ctx)
{
    base_->onHit(set, way, ctx);
    SetState &st = sets_[set];
    const std::uint64_t now = ++st.clock;
    // The demotion bit is deliberately NOT cleared by hits: it encodes
    // shared-vs-private, not dead-vs-live.  Clearing it on hits would
    // turn the filter into a generic dead-block predictor and credit
    // "sharing-awareness" with gains that have nothing to do with
    // sharing (e.g. in fully-private workloads).
    if ((st.protect >> way) & 1) {
        // A hit refreshes the protection clock; a cross-core hit marks
        // the promised sharing as observed.
        const std::size_t f = flat(set, way);
        if (ctx.core != fillCore_[f])
            st.sharedSeen |= 1ULL << way;
        expiry_[f] = expiryFor(st, way, now);
    }
}

void
SharingAwareWrapper::onEvict(unsigned set, unsigned way)
{
    base_->onEvict(set, way);
    clearWay(set, way);
}

void
SharingAwareWrapper::onInvalidate(unsigned set, unsigned way)
{
    base_->onInvalidate(set, way);
    clearWay(set, way);
}

void
SharingAwareWrapper::clearWay(unsigned set, unsigned way)
{
    SetState &st = sets_[set];
    const std::uint64_t keep = ~(1ULL << way);
    st.protect &= keep;
    st.demoted &= keep;
    st.sharedSeen &= keep;
}

std::string
SharingAwareWrapper::name() const
{
    return "sa+" + base_->name();
}

} // namespace casim
