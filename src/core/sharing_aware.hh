/**
 * @file
 * The generic sharing-aware victim filter — the paper's core mechanism.
 *
 * Wraps any base replacement policy.  Fills arrive carrying a fill-time
 * sharing label (from an oracle or a predictor); labeled blocks are
 * protected from victimisation while their predicted sharing is still
 * pending.
 *
 * Protection ages on a per-set access clock (every hit or
 * victimisation in the set advances it), so a stale protected block
 * expires after a bounded amount of set activity regardless of the
 * set's miss rate — aging per victimisation alone would make
 * protection nearly eternal in low-miss configurations and pin dead
 * "shared" blocks.  Two budgets bound the lifetime:
 *
 *  - pre-share: how long a labeled block may wait for its first
 *    cross-core touch (the sharing the label promised);
 *  - post-share: how long it survives after sharing has been observed
 *    once it stops receiving hits.  Migratory data (read-modify-write
 *    passed between cores, then dead) would otherwise linger.
 *
 * Hits refresh the clock.  If every candidate in a set is protected,
 * the filter falls back to the base policy to avoid set lock-up.  The
 * base policy still ranks the non-protected candidates, so the wrapper
 * composes with LRU, RRIP, SHiP, etc. unchanged.
 */

#ifndef CASIM_CORE_SHARING_AWARE_HH
#define CASIM_CORE_SHARING_AWARE_HH

#include <memory>
#include <vector>

#include "mem/repl/policy.hh"

namespace casim {

/** Sharing-aware victim-filter wrapper around a base policy. */
class SharingAwareWrapper : public ReplPolicy
{
  public:
    /**
     * @param base        The policy whose victim ranking is filtered.
     * @param pre_rounds  Set accesses a protected block may await its
     *                    promised sharing without receiving a hit.
     * @param post_rounds Set accesses a block survives after its
     *                    sharing was observed, once hits stop.  0
     *                    selects pre_rounds / 4 (min 1).
     * @param quota       Maximum fraction of a set's ways that may be
     *                    protected at once.  New fills are not granted
     *                    protection while the set is at quota, which
     *                    bounds how far the filter can distort the
     *                    base policy's ranking in a nearly-fitting
     *                    cache.
     * @param dueling     Enable set dueling: a group of leader sets
     *                    always applies sharing-awareness, another
     *                    never does, and a saturating selector (PSEL)
     *                    turns it on or off for the followers.
     *                    Applications whose sharing does not reward it
     *                    then degrade to the plain base policy instead
     *                    of losing performance.
     * @param demote_private Also victimise fills labeled NOT-shared
     *                    first (until their first hit), the insertion-
     *                    side half of sharing-awareness: streaming
     *                    private data stops displacing shared data.
     */
    explicit SharingAwareWrapper(std::unique_ptr<ReplPolicy> base,
                                 unsigned pre_rounds = 256,
                                 unsigned post_rounds = 0,
                                 double quota = 0.5,
                                 bool dueling = true,
                                 bool demote_private = true);

    /** Set-dueling role of a set. */
    enum class Role : std::uint8_t { Follower, OnLeader, OffLeader };

    /** Role assigned to a set (exposed for tests). */
    Role role(unsigned set) const { return roles_[set]; }

    /** Current PSEL value (exposed for tests). */
    unsigned psel() const { return psel_; }

    /**
     * True iff followers currently apply protection.  The selector
     * must clear a margin below the midpoint: phase-changing workloads
     * make the leader signal oscillate around neutral, and engaging
     * sharing-awareness on a noisy neutral signal only does damage.
     */
    bool
    followersProtect() const
    {
        return psel_ + kPselMargin < (1u << (kPselBits - 1));
    }

    unsigned victim(unsigned set, const ReplContext &ctx,
                    std::uint64_t exclude) override;
    void onFill(unsigned set, unsigned way, const ReplContext &ctx) override;
    void onHit(unsigned set, unsigned way, const ReplContext &ctx) override;
    void onEvict(unsigned set, unsigned way) override;
    void onInvalidate(unsigned set, unsigned way) override;
    std::string name() const override;

    /** True iff (set, way) currently holds an unexpired protection. */
    bool isProtected(unsigned set, unsigned way) const;

    /** Victimisations where at least one protected way was excluded. */
    std::uint64_t filteredVictims() const { return filteredVictims_; }

    /** Victimisations resolved among demoted (not-shared) fills. */
    std::uint64_t demotedVictims() const { return demotedVictims_; }

    /** True iff (set, way) holds a demoted (not-yet-hit) fill. */
    bool
    isDemoted(unsigned set, unsigned way) const
    {
        return (sets_[set].demoted >> way) & 1;
    }

    /** Victimisations where every candidate was protected. */
    std::uint64_t saturatedSets() const { return saturatedSets_; }

    /** The wrapped base policy (for tests). */
    ReplPolicy &base() { return *base_; }

  private:
    /**
     * Per-set protection state: the access clock and one bit per way
     * for each flag, so victim() and the quota count walk only the
     * protected ways.
     */
    struct SetState
    {
        /** Access clock: ticks on every hit and victimisation. */
        std::uint64_t clock = 0;
        /** Ways granted protection (live until their expiry). */
        std::uint64_t protect = 0;
        /** Ways filled with a NOT-shared label. */
        std::uint64_t demoted = 0;
        /** Protected ways that have seen a cross-core hit. */
        std::uint64_t sharedSeen = 0;
    };

    /** Expiry stamp for `way` of `st` refreshed at set-clock `now`. */
    std::uint64_t
    expiryFor(const SetState &st, unsigned way, std::uint64_t now) const
    {
        return now + ((st.sharedSeen >> way) & 1 ? postRounds_
                                                 : preRounds_);
    }

    /** Number of ways in `set` currently holding live protection. */
    unsigned protectedWays(unsigned set) const;

    /** Drop every flag of a way whose block left the cache. */
    void clearWay(unsigned set, unsigned way);

    /** True iff fills in `set` should be granted protection now. */
    bool protectionActive(unsigned set) const;

    static constexpr unsigned kPselBits = 10;
    static constexpr unsigned kPselMax = (1u << kPselBits) - 1;
    static constexpr unsigned kPselMargin = 1u << (kPselBits - 3);

    std::unique_ptr<ReplPolicy> base_;
    unsigned preRounds_;
    unsigned postRounds_;
    unsigned maxProtected_;
    bool dueling_;
    bool demotePrivate_;
    std::vector<Role> roles_;
    unsigned psel_ = 1u << (kPselBits - 1);
    std::vector<SetState> sets_;
    /** Per-way fill core and protection expiry (set-clock stamp). */
    std::vector<CoreId> fillCore_;
    std::vector<std::uint64_t> expiry_;
    std::uint64_t filteredVictims_ = 0;
    std::uint64_t demotedVictims_ = 0;
    std::uint64_t saturatedSets_ = 0;
};

} // namespace casim

#endif // CASIM_CORE_SHARING_AWARE_HH
