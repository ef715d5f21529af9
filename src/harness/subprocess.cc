#include "harness/subprocess.hh"

#include <cerrno>
#include <climits>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include "harness/json.hh"
#include "harness/result_codec.hh"
#include "report/json_value.hh"
#include "sim/log.hh"

// Coverage builds only: the forked child exits via _exit(2) (no static
// destructors, no stdio flush), which also skips libgcov's exit-time
// counter flush — making every child-side line look unexecuted. The
// reference must be strong (a weak one would not pull the libgcov
// archive member), so it is gated on the coverage build's define.
#ifdef CBSIM_COVERAGE_BUILD
extern "C" void __gcov_dump(void);
#endif

namespace cbsim {

namespace {

void
flushCoverageCounters()
{
#ifdef CBSIM_COVERAGE_BUILD
    __gcov_dump();
#endif
}

/** Stable names for the crash signals a cell realistically dies of
 * (strsignal(3) wording varies across libcs; artifacts must not). */
const char*
crashSignalName(int sig)
{
    switch (sig) {
      case SIGKILL: return "SIGKILL";
      case SIGSEGV: return "SIGSEGV";
      case SIGABRT: return "SIGABRT";
      case SIGBUS: return "SIGBUS";
      case SIGFPE: return "SIGFPE";
      case SIGILL: return "SIGILL";
      case SIGTERM: return "SIGTERM";
      default: return nullptr;
    }
}

/** The pipe payload: the cell's artifact row, wrapped with the two
 * host-only counters that must never enter an artifact. */
std::string
childPayload(const SweepJob& job, const JobOutcome& out)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.field("events", out.result.run.events);
    w.field("sim_wall_ms", out.result.run.simWallMs);
    w.key("row");
    w.rawValue(serializeRunRow(job, out));
    w.endObject();
    return os.str();
}

/** Decode a complete payload into @p out; false when @p text is not
 * one (the child died mid-write or before writing). */
bool
parseChildPayload(const std::string& text, JobOutcome& out)
{
    std::string error;
    const JsonValue doc = JsonValue::parse(text, error);
    if (!error.empty() || !doc.get("row").isObject())
        return false;
    out = parseRunRow(doc.get("row"));
    out.result.run.events =
        std::strtoull(doc.get("events").text().c_str(), nullptr, 10);
    out.result.run.simWallMs = doc.getNumber("sim_wall_ms");
    return true;
}

/** Child side: run the job, stream the payload, _exit. Never returns.
 * The child must not touch the parent's streams or run static
 * destructors — hence write(2) + _exit(2) only. */
[[noreturn]] void
childMain(const SweepJob& job, const DebugConfig& dcfg, int fd,
          bool kill_child)
{
    if (kill_child) {
        // Chaos `kill-child`: die the way a segfaulting cell does —
        // abruptly, with no payload and no exit handler.
        ::kill(::getpid(), SIGKILL);
    }
    const std::string payload = childPayload(job, runJob(job, dcfg));
    std::size_t off = 0;
    while (off < payload.size()) {
        const ssize_t n =
            ::write(fd, payload.data() + off, payload.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            flushCoverageCounters();
            ::_exit(3); // parent is gone; payload undeliverable
        }
        off += static_cast<std::size_t>(n);
    }
    ::close(fd);
    flushCoverageCounters();
    ::_exit(0);
}

} // namespace

void
ForkGate::enter()
{
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return !forking_; });
    ++shares_;
}

void
ForkGate::leave()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        --shares_;
    }
    cv_.notify_all();
}

ForkGate::Exclusive::Exclusive(ForkGate* gate) : gate_(gate)
{
    if (gate_ == nullptr)
        return;
    std::unique_lock<std::mutex> lock(gate_->mutex_);
    --gate_->shares_;
    gate_->cv_.wait(lock, [this] {
        return !gate_->forking_ && gate_->shares_ == 0;
    });
    gate_->forking_ = true;
}

ForkGate::Exclusive::~Exclusive()
{
    if (gate_ == nullptr)
        return;
    {
        std::lock_guard<std::mutex> lock(gate_->mutex_);
        gate_->forking_ = false;
        ++gate_->shares_;
    }
    gate_->cv_.notify_all();
}

int
backstopPollMs(double hard_timeout_s)
{
    if (!(hard_timeout_s > 0.0))
        return -1;
    const double ms = std::ceil(hard_timeout_s * 1000.0);
    return ms >= static_cast<double>(INT_MAX) ? INT_MAX
                                              : static_cast<int>(ms);
}

JobOutcome
runJobIsolated(const SweepJob& job, const DebugConfig& dcfg,
               double hard_timeout_s, bool kill_child, ForkGate* gate)
{
    JobOutcome out;
    out.ok = false;
    out.status = JobStatus::Crashed;
    out.result = ExperimentResult();

    int fds[2];
    pid_t pid;
    {
        // pipe + fork + closing the parent's write end all happen with
        // no other pool thread active, so no sibling child inherits
        // this pipe's write end (which would hold back our EOF until
        // that sibling exits) and no lock is copied while held.
        ForkGate::Exclusive exclusive(gate);
        if (::pipe(fds) != 0)
            fatal("--isolate: pipe() failed: ", std::strerror(errno));
        pid = ::fork();
        if (pid < 0) {
            ::close(fds[0]);
            ::close(fds[1]);
            fatal("--isolate: fork() failed: ", std::strerror(errno));
        }
        if (pid == 0) {
            ::close(fds[0]);
            childMain(job, dcfg, fds[1], kill_child); // never returns
        }
        ::close(fds[1]);
    }

    // Read the payload to EOF, SIGKILLing the child if it outlives the
    // hard backstop (the cooperative watchdog inside the child should
    // fire long before this; the backstop covers a wedged child).
    std::string payload;
    bool hard_timed_out = false;
    const int timeout_ms = backstopPollMs(hard_timeout_s);
    for (;;) {
        char chunk[4096];
        ssize_t n;
        {
            // Blocked on the child: only syscalls and the stack here.
            ForkGate::Away away(gate);
            if (timeout_ms >= 0 && !hard_timed_out) {
                struct pollfd pfd = {fds[0], POLLIN, 0};
                int rc;
                do {
                    rc = ::poll(&pfd, 1, timeout_ms);
                } while (rc < 0 && errno == EINTR);
                if (rc == 0) {
                    ::kill(pid, SIGKILL);
                    hard_timed_out = true;
                    // fall through: drain whatever the pipe still holds
                }
            }
            n = ::read(fds[0], chunk, sizeof(chunk));
        }
        if (n < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (n == 0)
            break;
        payload.append(chunk, static_cast<std::size_t>(n));
    }
    ::close(fds[0]);

    int wstatus = 0;
    pid_t waited;
    {
        ForkGate::Away away(gate);
        do {
            waited = ::waitpid(pid, &wstatus, 0);
        } while (waited < 0 && errno == EINTR);
    }

    if (hard_timed_out) {
        out.status = JobStatus::TimedOut;
        out.error = "job '" + job.key +
                    "': hard timeout: isolated child exceeded the "
                    "parent-side backstop and was killed";
        return out;
    }
    // A complete payload wins even over a nonzero exit: the child
    // classified its own failure before dying.
    if (parseChildPayload(payload, out))
        return out;

    if (waited == pid && WIFSIGNALED(wstatus)) {
        const int sig = WTERMSIG(wstatus);
        const char* name = crashSignalName(sig);
        out.error = "job '" + job.key + "' crashed: killed by " +
                    (name != nullptr ? std::string(name)
                                     : "signal " + std::to_string(sig));
    } else if (waited == pid && WIFEXITED(wstatus) &&
               WEXITSTATUS(wstatus) != 0) {
        out.error = "job '" + job.key + "' crashed: child exited with "
                    "status " +
                    std::to_string(WEXITSTATUS(wstatus));
    } else {
        out.error = "job '" + job.key + "' crashed: child died without "
                    "delivering a result payload";
    }
    return out;
}

} // namespace cbsim
