#ifndef RAFIKI_CLUSTER_NODE_MANAGER_H_
#define RAFIKI_CLUSTER_NODE_MANAGER_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace rafiki::cluster {

/// Cooperative cancellation flag handed to every container body. Long
/// loops check `cancelled()` and exit promptly when the manager kills the
/// container (the in-process analogue of `docker kill`).
class CancelToken {
 public:
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

/// The Rafiki manager (§6.1): starts masters/workers as "containers"
/// (threads here instead of Docker), kills them for failure injection and
/// restarts them for recovery (§6.3 — workers are stateless, masters
/// recover from checkpoints).
class NodeManager {
 public:
  using ContainerBody = std::function<void(CancelToken&)>;

  NodeManager() = default;
  ~NodeManager();
  NodeManager(const NodeManager&) = delete;
  NodeManager& operator=(const NodeManager&) = delete;

  /// Launches a named container running `body` on its own thread. The body
  /// is retained so the container can be restarted.
  Status StartContainer(const std::string& name, ContainerBody body);

  /// Cancels and joins the container. NotFound if unknown.
  Status KillContainer(const std::string& name);

  /// Kills then relaunches a container with its retained body; increments
  /// its restart count (failure recovery).
  Status RestartContainer(const std::string& name);

  /// True if the container thread is still running.
  bool IsRunning(const std::string& name) const;

  int RestartCount(const std::string& name) const;

  /// Blocks until the container body returns on its own, then reaps it.
  /// NotFound if unknown or already reaped.
  Status WaitContainer(const std::string& name);

  /// Kills everything (also run by the destructor).
  void Shutdown();

  std::vector<std::string> ListContainers() const;

 private:
  struct Container {
    ContainerBody body;
    // Shared with the container thread: the token must outlive the body
    // even after the bookkeeping entry is erased by Kill/Wait.
    std::shared_ptr<CancelToken> token;
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> running;
    int restarts = 0;
  };

  void Launch(Container& c);

  mutable std::mutex mu_;
  std::unordered_map<std::string, Container> containers_;
};

}  // namespace rafiki::cluster

#endif  // RAFIKI_CLUSTER_NODE_MANAGER_H_
