#ifndef QUERC_UTIL_TOPOLOGY_H_
#define QUERC_UTIL_TOPOLOGY_H_

#include <cstddef>
#include <functional>
#include <thread>

namespace querc::util {

/// The project-wide thread-count default: hardware_concurrency with the
/// mandated 0 guard. Never returns 0. Thread pools default to it.
size_t DefaultThreadCount();

/// The project-wide chokepoint for raw thread construction
/// (tools/check_source.py bans `std::thread(...)` outside src/util/):
/// spawns a joinable thread running `fn`, best-effort tagging it `name`
/// (truncated to the platform limit) for debuggers and profilers.
std::thread SpawnThread(const char* name, std::function<void()> fn);

}  // namespace querc::util

#endif  // QUERC_UTIL_TOPOLOGY_H_
