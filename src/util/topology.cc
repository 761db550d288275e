#include "util/topology.h"

#include <utility>

#if defined(__linux__)
#include <pthread.h>
#endif

namespace querc::util {

size_t DefaultThreadCount() {
  size_t n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

std::thread SpawnThread(const char* name, std::function<void()> fn) {
  std::thread t(std::move(fn));
#if defined(__linux__)
  if (name != nullptr && name[0] != '\0') {
    // pthread thread names cap at 15 chars + NUL; truncate, best-effort.
    char buf[16];
    size_t i = 0;
    for (; i < sizeof(buf) - 1 && name[i] != '\0'; ++i) buf[i] = name[i];
    buf[i] = '\0';
    (void)pthread_setname_np(t.native_handle(), buf);
  }
#else
  (void)name;
#endif
  return t;
}

}  // namespace querc::util
