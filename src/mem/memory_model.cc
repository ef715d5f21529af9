#include "mem/memory_model.hh"

namespace cbsim {

MemoryModel::MemoryModel(EventQueue& eq, Tick latency,
                         const StatsScope& scope)
    : eq_(eq), latency_(latency)
{
    scope.add("reads", reads_);
    scope.add("writes", writes_);
}

} // namespace cbsim
