#include "cluster/node_manager.h"

#include "common/logging.h"
#include "common/string_util.h"

namespace rafiki::cluster {

NodeManager::~NodeManager() { Shutdown(); }

void NodeManager::Launch(Container& c) {
  c.token = std::make_shared<CancelToken>();
  c.running = std::make_shared<std::atomic<bool>>(true);
  auto token = c.token;  // keep alive for the thread's whole lifetime
  auto running = c.running;
  ContainerBody body = c.body;
  c.thread = std::thread([body = std::move(body), token, running]() {
    body(*token);
    running->store(false, std::memory_order_release);
    running->notify_all();
  });
}

Status NodeManager::StartContainer(const std::string& name,
                                   ContainerBody body) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = containers_.try_emplace(name);
  if (!inserted) {
    return Status::AlreadyExists(
        StrFormat("container '%s' exists", name.c_str()));
  }
  it->second.body = std::move(body);
  Launch(it->second);
  return Status::OK();
}

Status NodeManager::KillContainer(const std::string& name) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = containers_.find(name);
  if (it == containers_.end()) {
    return Status::NotFound(StrFormat("no container '%s'", name.c_str()));
  }
  it->second.token->Cancel();
  std::thread t = std::move(it->second.thread);
  containers_.erase(it);
  lock.unlock();
  if (t.joinable()) t.join();
  return Status::OK();
}

Status NodeManager::RestartContainer(const std::string& name) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = containers_.find(name);
  if (it == containers_.end()) {
    return Status::NotFound(StrFormat("no container '%s'", name.c_str()));
  }
  it->second.token->Cancel();
  std::thread t = std::move(it->second.thread);
  lock.unlock();
  if (t.joinable()) t.join();
  lock.lock();
  it = containers_.find(name);
  if (it == containers_.end()) {
    return Status::NotFound(
        StrFormat("container '%s' vanished during restart", name.c_str()));
  }
  ++it->second.restarts;
  Launch(it->second);
  return Status::OK();
}

bool NodeManager::IsRunning(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = containers_.find(name);
  return it != containers_.end() &&
         it->second.running->load(std::memory_order_acquire);
}

int NodeManager::RestartCount(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = containers_.find(name);
  return it == containers_.end() ? 0 : it->second.restarts;
}

Status NodeManager::WaitContainer(const std::string& name) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = containers_.find(name);
  if (it == containers_.end()) {
    return Status::NotFound(StrFormat("no container '%s'", name.c_str()));
  }
  // Wait with the entry still listed, so IsRunning stays true until the
  // body returns and concurrent waiters all block; then reap it.
  std::shared_ptr<std::atomic<bool>> running = it->second.running;
  lock.unlock();
  running->wait(true, std::memory_order_acquire);
  lock.lock();
  it = containers_.find(name);
  // Reaped by another caller, or relaunched: the run waited on is over.
  if (it == containers_.end() || it->second.running != running) {
    return Status::OK();
  }
  std::thread t = std::move(it->second.thread);
  containers_.erase(it);
  lock.unlock();
  if (t.joinable()) t.join();
  return Status::OK();
}

void NodeManager::Shutdown() {
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [name, c] : containers_) {
      c.token->Cancel();
      threads.push_back(std::move(c.thread));
    }
    containers_.clear();
  }
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
}

std::vector<std::string> NodeManager::ListContainers() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  for (const auto& [name, c] : containers_) out.push_back(name);
  return out;
}

}  // namespace rafiki::cluster
