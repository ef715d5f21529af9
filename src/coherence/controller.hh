/**
 * @file
 * Abstract interfaces for L1 controllers and LLC banks, plus the shared
 * per-bank timing helper (pipelined bank occupancy).
 */

#ifndef CBSIM_COHERENCE_CONTROLLER_HH
#define CBSIM_COHERENCE_CONTROLLER_HH

#include <functional>

#include "coherence/mem_request.hh"
#include "noc/mesh.hh"
#include "sim/event_queue.hh"
#include "stats/stats.hh"

namespace cbsim {

class JsonWriter;

/** Fence completion callback. */
using FenceCompletion = std::function<void()>;

/**
 * Protocol-side of a core's private cache. One instance per core; the
 * core blocks on access() until onComplete fires, and on fences until
 * their completion fires. The mesh delivers its node's Port::Core
 * messages to handleMessage().
 */
class L1Controller : public MessageSink
{
  public:
    /** Issue a memory operation (at most one outstanding per core). */
    virtual void access(MemRequest req) = 0;

    /**
     * self-invl fence: invalidate shared data in the L1 (and, per the
     * paper's footnote 7, first self-downgrade transient dirty data).
     * No-op under MESI.
     */
    virtual void selfInvalidate(FenceCompletion done) = 0;

    /** self-down fence: write-through all dirty data. No-op under MESI. */
    virtual void selfDowngrade(FenceCompletion done) = 0;

    /**
     * Emit this controller's debug state (pending misses, transient
     * lines, ...) as one JSON value into @p w. Called only from
     * forensic dumps; the default emits null.
     */
    virtual void dumpDebug(JsonWriter& w) const;
};

/**
 * Protocol-side of one LLC bank (home node for its address slice). The
 * mesh delivers its node's Port::Bank messages to handleMessage().
 */
class LlcBank : public MessageSink
{
  public:
    /** Forensic state dump; see L1Controller::dumpDebug. */
    virtual void dumpDebug(JsonWriter& w) const;
};

/**
 * Pipelined-resource timing: a bank accepts one request per cycle and
 * answers after its access latency. start() returns the cycle the access
 * begins (after any queueing delay).
 */
class PipelinedResource
{
  public:
    explicit PipelinedResource(EventQueue& eq) : eq_(eq) {}

    /** Reserve the next issue slot at or after now. */
    Tick
    start()
    {
        const Tick begin = eq_.now() > nextFree_ ? eq_.now() : nextFree_;
        nextFree_ = begin + 1;
        return begin;
    }

    /**
     * Reserve a slot and schedule @p fn when the access (of @p latency
     * cycles) completes. Templated so the callable lands inline in the
     * event queue without a std::function round-trip.
     */
    template <typename F>
    void
    access(Tick latency, F&& fn)
    {
        const Tick begin = start();
        eq_.scheduleAt(begin + latency, std::forward<F>(fn));
    }

  private:
    EventQueue& eq_;
    Tick nextFree_ = 0;
};

} // namespace cbsim

#endif // CBSIM_COHERENCE_CONTROLLER_HH
