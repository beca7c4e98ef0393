/**
 * @file
 * Test-only reference model of SharingAwareWrapper: the wrapper's
 * protect/demote/dueling rules written straight-line over one
 * std::vector per per-way flag, with an O(ways) walk wherever the
 * production wrapper walks a per-set bitmask, and leader sets chosen
 * by a full sort.  ReferenceModel.SharingAwareWrapperMatchesReference
 * drives both with identical event sequences and compares every
 * observable after every step.
 */

#ifndef CASIM_TESTS_REFERENCE_SHARING_AWARE_HH
#define CASIM_TESTS_REFERENCE_SHARING_AWARE_HH

#include <algorithm>
#include <memory>
#include <vector>

#include "common/rng.hh"
#include "mem/repl/policy.hh"

namespace casim {

/** Per-way-array model of SharingAwareWrapper (same constructor). */
class ReferenceSharingAwareWrapper : public ReplPolicy
{
  public:
    enum class Role : std::uint8_t { Follower, OnLeader, OffLeader };

    ReferenceSharingAwareWrapper(std::unique_ptr<ReplPolicy> base,
                                 unsigned pre_rounds, unsigned post_rounds,
                                 double quota, bool dueling,
                                 bool demote_private)
        : ReplPolicy(base->numSets(), base->numWays()),
          base_(std::move(base)), preRounds_(pre_rounds),
          postRounds_(post_rounds != 0 ? post_rounds
                                       : std::max(1u, pre_rounds / 4)),
          maxProtected_(std::max(
              1u, static_cast<unsigned>(quota * numWays() + 0.5))),
          dueling_(dueling), demotePrivate_(demote_private),
          roles_(numSets(), Role::Follower), clock_(numSets(), 0),
          protected_(size(), 0), demoted_(size(), 0),
          sharedSeen_(size(), 0), fillCore_(size(), 0), expiry_(size(), 0)
    {
        if (!dueling_)
            return;
        const unsigned leaders_per_policy =
            numSets() >= 256 ? 64 : std::max(1u, numSets() / 4);
        const unsigned total_leaders =
            std::min(numSets(), 2 * leaders_per_policy);
        std::vector<unsigned> order(numSets());
        for (unsigned set = 0; set < numSets(); ++set)
            order[set] = set;
        std::sort(order.begin(), order.end(), [](unsigned a, unsigned b) {
            return mix64(a ^ 0x5a5a) < mix64(b ^ 0x5a5a);
        });
        for (unsigned k = 0; k < total_leaders; ++k)
            roles_[order[k]] = k % 2 == 0 ? Role::OnLeader : Role::OffLeader;
    }

    Role role(unsigned set) const { return roles_[set]; }
    unsigned psel() const { return psel_; }

    bool
    followersProtect() const
    {
        return psel_ + kPselMargin < (1u << (kPselBits - 1));
    }

    unsigned
    victim(unsigned set, const ReplContext &ctx,
           std::uint64_t exclude) override
    {
        const std::uint64_t now = ++clock_[set];
        std::uint64_t protect_mask = 0;
        std::uint64_t demote_mask = 0;
        if (protectionActive(set)) {
            for (unsigned way = 0; way < numWays(); ++way) {
                const std::size_t f = flat(set, way);
                if (demoted_[f])
                    demote_mask |= 1ULL << way;
                if (!protected_[f])
                    continue;
                if (now >= expiry_[f]) {
                    protected_[f] = 0;
                    continue;
                }
                protect_mask |= 1ULL << way;
            }
        }
        const std::uint64_t all =
            numWays() >= 64 ? ~0ULL : ((1ULL << numWays()) - 1);
        const std::uint64_t prefer_demoted =
            exclude | (all & ~demote_mask);
        if (protect_mask != 0 && demote_mask != 0 &&
            (prefer_demoted & all) != all) {
            ++demotedVictims_;
            return base_->victim(set, ctx, prefer_demoted);
        }
        std::uint64_t combined = exclude | protect_mask;
        if ((combined & all) == all) {
            ++saturatedSets_;
            combined = exclude;
        }
        const unsigned way = base_->victim(set, ctx, combined);
        if (combined != exclude)
            ++filteredVictims_;
        return way;
    }

    void
    onFill(unsigned set, unsigned way, const ReplContext &ctx) override
    {
        base_->onFill(set, way, ctx);
        if (dueling_) {
            if (roles_[set] == Role::OnLeader && psel_ < kPselMax)
                ++psel_;
            else if (roles_[set] == Role::OffLeader && psel_ > 0)
                --psel_;
        }
        const std::size_t f = flat(set, way);
        protected_[f] = 0;
        unsigned live = 0;
        for (unsigned other = 0; other < numWays(); ++other)
            live += isProtected(set, other) ? 1 : 0;
        protected_[f] = ctx.predictedShared && protectionActive(set) &&
                        live < maxProtected_;
        demoted_[f] = demotePrivate_ && !ctx.predictedShared;
        sharedSeen_[f] = 0;
        fillCore_[f] = ctx.core;
        expiry_[f] = clock_[set] + preRounds_;
    }

    void
    onHit(unsigned set, unsigned way, const ReplContext &ctx) override
    {
        base_->onHit(set, way, ctx);
        const std::uint64_t now = ++clock_[set];
        const std::size_t f = flat(set, way);
        if (protected_[f]) {
            if (ctx.core != fillCore_[f])
                sharedSeen_[f] = 1;
            expiry_[f] = now + (sharedSeen_[f] ? postRounds_ : preRounds_);
        }
    }

    void
    onEvict(unsigned set, unsigned way) override
    {
        base_->onEvict(set, way);
        clear(flat(set, way));
    }

    void
    onInvalidate(unsigned set, unsigned way) override
    {
        base_->onInvalidate(set, way);
        clear(flat(set, way));
    }

    std::string name() const override { return "ref+" + base_->name(); }

    bool
    isProtected(unsigned set, unsigned way) const
    {
        const std::size_t f = flat(set, way);
        return protected_[f] != 0 && clock_[set] < expiry_[f];
    }

    bool isDemoted(unsigned set, unsigned way) const
    {
        return demoted_[flat(set, way)] != 0;
    }

    std::uint64_t filteredVictims() const { return filteredVictims_; }
    std::uint64_t demotedVictims() const { return demotedVictims_; }
    std::uint64_t saturatedSets() const { return saturatedSets_; }

  private:
    static constexpr unsigned kPselBits = 10;
    static constexpr unsigned kPselMax = (1u << kPselBits) - 1;
    static constexpr unsigned kPselMargin = 1u << (kPselBits - 3);

    std::size_t
    size() const
    {
        return static_cast<std::size_t>(numSets()) * numWays();
    }

    bool
    protectionActive(unsigned set) const
    {
        if (!dueling_)
            return true;
        if (roles_[set] == Role::OnLeader)
            return true;
        if (roles_[set] == Role::OffLeader)
            return false;
        return followersProtect();
    }

    void
    clear(std::size_t f)
    {
        protected_[f] = 0;
        demoted_[f] = 0;
        sharedSeen_[f] = 0;
    }

    std::unique_ptr<ReplPolicy> base_;
    unsigned preRounds_;
    unsigned postRounds_;
    unsigned maxProtected_;
    bool dueling_;
    bool demotePrivate_;
    std::vector<Role> roles_;
    unsigned psel_ = 1u << (kPselBits - 1);
    std::vector<std::uint64_t> clock_;
    std::vector<std::uint8_t> protected_;
    std::vector<std::uint8_t> demoted_;
    std::vector<std::uint8_t> sharedSeen_;
    std::vector<CoreId> fillCore_;
    std::vector<std::uint64_t> expiry_;
    std::uint64_t filteredVictims_ = 0;
    std::uint64_t demotedVictims_ = 0;
    std::uint64_t saturatedSets_ = 0;
};

} // namespace casim

#endif // CASIM_TESTS_REFERENCE_SHARING_AWARE_HH
