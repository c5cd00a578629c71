/**
 * @file
 * Fixed-size worker pool used by the Fig 3 and Fig 4 trace-analysis
 * benches; hardwareJobs() is every runner's default job count. Tasks
 * are submitted as callables and return futures; exceptions thrown
 * inside a task are captured and rethrown from the corresponding
 * future's get(), never lost in a worker thread.
 */

#ifndef SHOTGUN_RUNNER_THREAD_POOL_HH
#define SHOTGUN_RUNNER_THREAD_POOL_HH

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace shotgun
{
namespace runner
{

class ThreadPool
{
  public:
    /** Spawn `threads` workers (0 is clamped to 1). */
    explicit ThreadPool(unsigned threads);

    /** Drains outstanding tasks, then joins every worker. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads. */
    unsigned size() const { return static_cast<unsigned>(workers_.size()); }

    /**
     * Queue a callable; tasks start in FIFO submission order. The
     * returned future yields the callable's result or rethrows its
     * exception.
     */
    template <typename Fn, typename R = std::invoke_result_t<Fn>>
    std::future<R> submit(Fn &&fn)
    {
        auto task = std::make_shared<std::packaged_task<R()>>(
            std::forward<Fn>(fn));
        std::future<R> future = task->get_future();
        enqueue([task]() { (*task)(); });
        return future;
    }

    /** Reasonable default worker count for this machine. */
    static unsigned hardwareJobs();

  private:
    void enqueue(std::function<void()> task);
    void workerLoop();

    std::mutex mutex_;
    std::condition_variable wake_;
    std::deque<std::function<void()>> queue_;
    bool stopping_ = false;
    std::vector<std::thread> workers_;
};

} // namespace runner
} // namespace shotgun

#endif // SHOTGUN_RUNNER_THREAD_POOL_HH
