/**
 * @file
 * Weighted fair-share request queue for the proving service.
 *
 * The PR-4 service used a single FIFO: one burst tenant could fill
 * the bounded queue and starve everyone else until its backlog
 * drained. FairShareQueue replaces it with one queue per tenant and a
 * deficit-round-robin (DRR) scheduler over the *active* tenants:
 *
 *  - every tenant carries a weight (default 1, configured per service
 *    through ProofService::Options::tenantWeights, which the driver's
 *    --tenant-weights flag fills via parseTenantWeightsSpec()); a
 *    visit in the DRR ring refills the
 *    tenant's deficit by its weight and the tenant is served one
 *    request per deficit unit, so under saturation tenant goodput
 *    converges to the weight ratio regardless of arrival bursts;
 *  - within a tenant, higher Request::priority is served first and
 *    FIFO order breaks ties, so a tenant can expedite its own urgent
 *    work without being able to jump another tenant's share;
 *  - the scheduler is deterministic: the dequeue sequence is a pure
 *    function of the push sequence and the weights (no clocks, no
 *    thread schedule), so seeded service traces replay exactly.
 *
 * The queue is not internally synchronized; ProofService guards it
 * with its own mutex (the queue is only touched under submit/drain).
 */

#ifndef GZKP_SERVICE_FAIR_QUEUE_HH
#define GZKP_SERVICE_FAIR_QUEUE_HH

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <utility>
#include <vector>

#include "status/status.hh"

namespace gzkp::service {

/**
 * Parse a tenant-weight spec: comma-separated `tenant:weight` pairs
 * (`=` also accepted), e.g. "0:10,1:1,7:3". Weights are clamped to
 * [1, 10^6]. Malformed specs return a typed kInvalidArgument.
 */
StatusOr<std::map<std::uint64_t, std::uint64_t>>
parseTenantWeightsSpec(const char *spec);

/**
 * Weighted fair-share queue: per-tenant FIFO-with-priority queues
 * under a deficit-round-robin scheduler. T is the queued payload
 * (ProofService::Pending); it must be movable.
 */
template <typename T>
class FairShareQueue
{
  public:
    struct Item {
        std::uint64_t tenant = 0;
        int priority = 0;
        std::uint64_t seq = 0; //!< global arrival order
        T value;
    };

    /** Set (or change) a tenant's weight; clamped to >= 1. */
    void
    setWeight(std::uint64_t tenant, std::uint64_t weight)
    {
        tenants_[tenant].weight = std::max<std::uint64_t>(1, weight);
    }

    std::uint64_t
    weight(std::uint64_t tenant) const
    {
        auto it = tenants_.find(tenant);
        return it == tenants_.end() ? 1 : it->second.weight;
    }

    void
    push(std::uint64_t tenant, int priority, T value)
    {
        TenantQ &tq = tenants_[tenant];
        if (tq.q.empty())
            ring_.push_back(tenant); // becomes active
        Item item;
        item.tenant = tenant;
        item.priority = priority;
        item.seq = seq_++;
        item.value = std::move(value);
        tq.q.push_back(std::move(item));
        ++size_;
    }

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    std::size_t
    tenantDepth(std::uint64_t tenant) const
    {
        auto it = tenants_.find(tenant);
        return it == tenants_.end() ? 0 : it->second.q.size();
    }

    /** Number of tenants with queued work. */
    std::size_t activeTenants() const { return ring_.size(); }

    /**
     * Deficit-round-robin pop: serve the ring tenant with remaining
     * deficit (refilling by weight on each visit), taking its
     * highest-priority item (FIFO within a priority). False when
     * empty.
     */
    bool
    pop(Item &out)
    {
        if (size_ == 0)
            return false;
        for (;;) {
            if (ringPos_ >= ring_.size())
                ringPos_ = 0;
            std::uint64_t t = ring_[ringPos_];
            TenantQ &tq = tenants_[t];
            if (tq.q.empty()) {
                // Drained by extractIf(); drop from the ring.
                removeFromRing(t);
                tq.deficit = 0;
                continue;
            }
            if (tq.deficit == 0) {
                tq.deficit = tq.weight; // refill on visit
            }
            auto best = tq.q.begin();
            for (auto it = tq.q.begin(); it != tq.q.end(); ++it) {
                if (it->priority > best->priority)
                    best = it; // first max: FIFO within priority
            }
            out = std::move(*best);
            tq.q.erase(best);
            --size_;
            --tq.deficit;
            if (tq.q.empty()) {
                removeFromRing(t);
                tq.deficit = 0;
            } else if (tq.deficit == 0) {
                ++ringPos_; // share spent; next tenant
            }
            return true;
        }
    }

    /**
     * Remove up to `max` items satisfying `pred`, in global arrival
     * order (the service uses this for same-circuit batch coalescing
     * and for flushing doomed work). Extraction does not consume
     * deficit: coalescing is a cache optimization, not a scheduling
     * decision, and fairness is enforced at pop().
     */
    template <typename Pred>
    std::vector<Item>
    extractIf(Pred pred, std::size_t max)
    {
        std::vector<Item> out;
        while (out.size() < max) {
            TenantQ *bestq = nullptr;
            std::size_t besti = 0;
            for (auto &[tenant, tq] : tenants_) {
                for (std::size_t i = 0; i < tq.q.size(); ++i) {
                    if (!pred(tq.q[i]))
                        continue;
                    if (bestq == nullptr ||
                        tq.q[i].seq < bestq->q[besti].seq) {
                        bestq = &tq;
                        besti = i;
                    }
                    break; // per-tenant FIFO: first match is earliest
                }
            }
            if (bestq == nullptr)
                return out;
            std::uint64_t tenant = bestq->q[besti].tenant;
            out.push_back(std::move(bestq->q[besti]));
            bestq->q.erase(bestq->q.begin() + besti);
            --size_;
            if (bestq->q.empty()) {
                removeFromRing(tenant);
                bestq->deficit = 0;
            }
        }
        return out;
    }

    /** Remove and return everything (shutdown flush), arrival order. */
    std::vector<Item>
    flush()
    {
        auto all = extractIf([](const Item &) { return true; }, size_);
        ring_.clear();
        ringPos_ = 0;
        return all;
    }

  private:
    struct TenantQ {
        std::uint64_t weight = 1;
        std::uint64_t deficit = 0;
        std::deque<Item> q;
    };

    void
    removeFromRing(std::uint64_t tenant)
    {
        for (std::size_t i = 0; i < ring_.size(); ++i) {
            if (ring_[i] != tenant)
                continue;
            ring_.erase(ring_.begin() + i);
            if (ringPos_ > i)
                --ringPos_;
            else if (ringPos_ >= ring_.size())
                ringPos_ = 0;
            return;
        }
    }

    std::map<std::uint64_t, TenantQ> tenants_;
    std::vector<std::uint64_t> ring_; //!< tenants with queued work
    std::size_t ringPos_ = 0;
    std::uint64_t seq_ = 0;
    std::size_t size_ = 0;
};

} // namespace gzkp::service

#endif // GZKP_SERVICE_FAIR_QUEUE_HH
