// Kill-9 crash-recovery tests (DESIGN.md §8): fork/exec the real
// sched_server binary with a journal, SIGKILL it mid-churn via the
// persist.crash.append fault point (the process dies right after a record
// hit the file, before the ack), restart it on the same journal dir, and
// prove the recovery invariant — every acked commit is recovered
// fingerprint-identical, and the one possibly-unacked in-flight commit is
// absorbed by expect_revision dedupe instead of double-applied.
//
// The seed is taken from BAGSCHED_CHAOS_SEED (default 1) so CI can sweep
// several kill points. On failure the journal dir is kept and its path
// printed, for upload as a CI artifact.
#include <gtest/gtest.h>

#include <dirent.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "api/telemetry.h"
#include "gen/churn.h"
#include "model/delta.h"
#include "net/client.h"
#include "persist/journal.h"

namespace bagsched {
namespace {

constexpr const char* kServerBinary = "./sched_server";

std::uint64_t chaos_seed() {
  const char* env = std::getenv("BAGSCHED_CHAOS_SEED");
  return env != nullptr && *env != '\0' ? std::strtoull(env, nullptr, 10) : 1;
}

/// Scratch journal directory; kept (with its path printed) when the test
/// failed so CI can archive the evidence.
class JournalDir {
 public:
  JournalDir() {
    char templ[] = "/tmp/bagsched_recovery_XXXXXX";
    const char* made = ::mkdtemp(templ);
    EXPECT_NE(made, nullptr);
    if (made != nullptr) path_ = made;
  }
  ~JournalDir() {
    if (path_.empty()) return;
    if (::testing::Test::HasFailure()) {
      std::fprintf(stderr, "[recovery] journal kept for inspection: %s\n",
                   path_.c_str());
      return;
    }
    if (DIR* dir = ::opendir(path_.c_str())) {
      while (const dirent* entry = ::readdir(dir)) {
        const std::string name = entry->d_name;
        if (name == "." || name == "..") continue;
        ::unlink((path_ + "/" + name).c_str());
      }
      ::closedir(dir);
    }
    ::rmdir(path_.c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// A forked sched_server child. stdout is piped so the test can read the
/// "listening on host:port" line; stderr is inherited (visible in logs).
struct ServerProc {
  pid_t pid = -1;
  int out_fd = -1;
  std::uint16_t port = 0;

  ~ServerProc() { shutdown(); }

  void shutdown() {
    if (out_fd >= 0) {
      ::close(out_fd);
      out_fd = -1;
    }
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      int status = 0;
      ::waitpid(pid, &status, 0);
      pid = -1;
    }
  }

  /// Reaps the child and returns its raw waitpid status.
  int wait_status() {
    int status = 0;
    EXPECT_EQ(::waitpid(pid, &status, 0), pid);
    pid = -1;
    return status;
  }

  std::string read_line() {
    std::string line;
    char byte = 0;
    while (::read(out_fd, &byte, 1) == 1) {
      if (byte == '\n') break;
      line.push_back(byte);
    }
    return line;
  }
};

/// fork/exec the real binary. `faults` (may be empty) becomes
/// BAGSCHED_FAULTS in the child. Returns with `port` parsed from stdout.
ServerProc spawn_server(const std::vector<std::string>& args,
                        const std::string& faults, std::uint64_t fault_seed) {
  int out_pipe[2] = {-1, -1};
  EXPECT_EQ(::pipe(out_pipe), 0);

  const pid_t pid = ::fork();
  if (pid == 0) {
    ::dup2(out_pipe[1], STDOUT_FILENO);
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    if (!faults.empty()) {
      ::setenv("BAGSCHED_FAULTS", faults.c_str(), 1);
      ::setenv("BAGSCHED_FAULT_SEED", std::to_string(fault_seed).c_str(), 1);
    } else {
      ::unsetenv("BAGSCHED_FAULTS");
    }
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(kServerBinary));
    for (const std::string& arg : args) {
      argv.push_back(const_cast<char*>(arg.c_str()));
    }
    argv.push_back(nullptr);
    ::execv(kServerBinary, argv.data());
    std::perror("execv sched_server");
    ::_exit(127);
  }

  ServerProc proc;
  proc.pid = pid;
  proc.out_fd = out_pipe[0];
  ::close(out_pipe[1]);

  const std::string line = proc.read_line();  // "listening on host:port"
  const std::size_t colon = line.rfind(':');
  EXPECT_NE(colon, std::string::npos) << "unexpected greeting: " << line;
  if (colon != std::string::npos) {
    proc.port = static_cast<std::uint16_t>(
        std::stoi(line.substr(colon + 1)));
  }
  return proc;
}

/// Polls GET /healthz until it answers 200 (journal replay finished).
void await_ready(std::uint16_t port) {
  for (int attempt = 0; attempt < 200; ++attempt) {
    try {
      const auto [status, body] = net::fetch_healthz("127.0.0.1", port);
      if (status == 200) return;
    } catch (const std::exception&) {
      // Connection refused while the listener comes up; keep polling.
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  FAIL() << "server on port " << port << " never became ready";
}

/// Indices of the deltas that actually commit (advance the revision and
/// reach the journal): noop deltas are answered from the last commit
/// without an append, so the kill-point arithmetic must skip them.
std::vector<std::size_t> commit_indices(
    const std::vector<model::Delta>& deltas) {
  std::vector<std::size_t> indices;
  for (std::size_t i = 0; i < deltas.size(); ++i) {
    if (!model::is_noop(deltas[i])) indices.push_back(i);
  }
  return indices;
}

gen::ChurnParams recovery_churn(std::uint64_t seed) {
  gen::ChurnParams params;
  params.num_jobs = 36;
  params.num_machines = 5;
  params.num_bags = 10;
  params.steps = 10;
  params.seed = seed;
  return params;
}

bool server_binary_present() { return ::access(kServerBinary, X_OK) == 0; }

// The canonical kill-9 chaos run. Journal appends in the child, in order:
// #1 the boot-time compaction snapshot, #2 the session_open, #2+k the k-th
// delta_commit — so persist.crash.append=n(K) SIGKILLs the server right
// after commit K-2 hit the file, before its ack went out.
TEST(RecoveryTest, AckedCommitsSurviveASigkillFingerprintIdentical) {
  if (!server_binary_present()) {
    GTEST_SKIP() << "sched_server binary not built";
  }
  const std::uint64_t seed = chaos_seed();
  const auto trace = gen::churn_trace(recovery_churn(17 + seed));
  const std::size_t steps = trace.deltas.size();
  const std::vector<std::size_t> commits = commit_indices(trace.deltas);
  ASSERT_GE(commits.size(), 4u);
  // Kill during commit k (1-based among the committing deltas), leaving at
  // least two commits to finish after recovery.
  const std::size_t kill_commit = 1 + seed % (commits.size() - 2);
  const std::string fault =
      "persist.crash.append=n" + std::to_string(kill_commit + 2);

  JournalDir dir;
  const std::vector<std::string> args = {
      "--journal-dir", dir.path(), "--fsync",          "always",
      "--threads",     "2",        "--session-linger", "60"};
  ServerProc server = spawn_server(args, fault, seed);
  ASSERT_GT(server.port, 0);
  await_ready(server.port);

  // ledger[r] = schedule digest the server acked at revision r.
  std::vector<std::string> ledger;
  net::Client client = net::Client::connect("127.0.0.1", server.port);
  const api::SolveRequest request = api::make_request(
      trace.initial, api::SolveOptions{}, {"greedy-bags"});
  const net::Client::Session session = client.open_session(request, "s1");
  ASSERT_NE(session.epoch, 0u);
  ledger.push_back(persist::schedule_digest(session.initial.schedule));

  std::size_t in_flight = steps;  // 0-based index of the unacked delta
  for (std::size_t i = 0; i < steps; ++i) {
    try {
      const api::SolveResult result = client.delta(
          session.id, trace.deltas[i], "d" + std::to_string(i),
          /*want_schedule=*/true, /*read_timeout_seconds=*/20.0);
      ASSERT_TRUE(result.ok()) << result.error;
      if (model::is_noop(trace.deltas[i])) continue;  // no commit, no ack
      ASSERT_EQ(api::stat_int(result.stats, "online.revision", -1),
                static_cast<long long>(ledger.size()));
      ledger.push_back(persist::schedule_digest(result.schedule));
    } catch (const std::exception&) {
      in_flight = i;  // the crash window: sent, journaled, never acked
      break;
    }
  }
  ASSERT_EQ(in_flight, commits[kill_commit - 1])
      << "expected the injected SIGKILL at commit " << kill_commit;
  const std::uint64_t acked = ledger.size() - 1;

  const int status = server.wait_status();
  ASSERT_TRUE(WIFSIGNALED(status));
  ASSERT_EQ(WTERMSIG(status), SIGKILL);
  client.close();

  // Restart on the same journal, no fault injection this time.
  ServerProc revived = spawn_server(args, "", 0);
  ASSERT_GT(revived.port, 0);
  await_ready(revived.port);

  net::Client resumer = net::Client::connect("127.0.0.1", revived.port);
  const net::Client::Resumed resumed =
      resumer.resume_session(session.id, session.epoch);
  EXPECT_EQ(resumed.epoch, session.epoch);
  // acked ⇒ recovered: the server may be exactly at the last acked
  // revision, or one ahead (the journaled-but-unacked in-flight commit).
  ASSERT_GE(resumed.revision, acked);
  ASSERT_LE(resumed.revision, acked + 1);
  if (resumed.revision == acked) {
    EXPECT_EQ(resumed.digest, ledger[acked]);
  }

  // Resend the in-flight delta with expect_revision = last acked. If its
  // first copy landed before the crash this is answered from the commit
  // cache (duplicate ack), never applied twice; otherwise it applies now.
  const api::SolveResult resent = resumer.delta(
      session.id, trace.deltas[in_flight], "resend",
      /*want_schedule=*/true, /*read_timeout_seconds=*/20.0,
      /*expect_revision=*/acked);
  ASSERT_TRUE(resent.ok()) << resent.error;
  EXPECT_EQ(api::stat_int(resent.stats, "online.revision", -1),
            static_cast<long long>(acked + 1));
  const bool was_duplicate =
      api::stat_bool(resent.stats, "online.duplicate", false);
  EXPECT_EQ(was_duplicate, resumed.revision == acked + 1);
  if (was_duplicate) {
    // The cached commit IS the recovered one — fingerprint-identical.
    EXPECT_EQ(persist::schedule_digest(resent.schedule), resumed.digest);
  }
  ledger.push_back(persist::schedule_digest(resent.schedule));

  // Finish the trace against the revived server.
  for (std::size_t i = in_flight + 1; i < steps; ++i) {
    const api::SolveResult result = resumer.delta(
        session.id, trace.deltas[i], "r" + std::to_string(i),
        /*want_schedule=*/true, /*read_timeout_seconds=*/20.0);
    ASSERT_TRUE(result.ok()) << result.error;
    if (model::is_noop(trace.deltas[i])) continue;
    EXPECT_EQ(api::stat_int(result.stats, "online.revision", -1),
              static_cast<long long>(ledger.size()));
    ledger.push_back(persist::schedule_digest(result.schedule));
  }
  EXPECT_EQ(ledger.size(), commits.size() + 1);
  resumer.close_session(session.id);
  resumer.close();

  ::kill(revived.pid, SIGTERM);
  const int drained = revived.wait_status();
  EXPECT_TRUE(WIFEXITED(drained));
  EXPECT_EQ(WEXITSTATUS(drained), 0);
}

// The same crash, driven through RetryingClient: after the SIGKILL its
// delta() exhausts the retry budget and throws, but the tracked session
// (id, epoch, pinned revision) survives — once the server is back on the
// same port, the next delta() transparently reconnects, resumes, and the
// resend is absorbed as a duplicate ack instead of a double-apply.
TEST(RecoveryTest, RetryingClientResumesAcrossARestart) {
  if (!server_binary_present()) {
    GTEST_SKIP() << "sched_server binary not built";
  }
  const std::uint64_t seed = chaos_seed();
  const auto trace = gen::churn_trace(recovery_churn(101 + seed));
  const std::size_t steps = trace.deltas.size();
  const std::vector<std::size_t> commits = commit_indices(trace.deltas);
  ASSERT_GE(commits.size(), 5u);
  const std::size_t kill_commit = 2 + seed % (commits.size() - 3);
  const std::string fault =
      "persist.crash.append=n" + std::to_string(kill_commit + 2);

  JournalDir dir;
  std::vector<std::string> args = {
      "--journal-dir", dir.path(), "--fsync",          "interval",
      "--threads",     "2",        "--session-linger", "60"};
  ServerProc server = spawn_server(args, fault, seed);
  ASSERT_GT(server.port, 0);
  await_ready(server.port);
  const std::uint16_t port = server.port;

  net::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.connect_timeout_seconds = 2.0;
  policy.read_timeout_seconds = 20.0;
  policy.initial_backoff_seconds = 0.02;
  policy.max_backoff_seconds = 0.1;
  net::RetryingClient client("127.0.0.1", port, policy);
  const api::SolveRequest request = api::make_request(
      trace.initial, api::SolveOptions{}, {"greedy-bags"});
  client.open_session(request);

  std::size_t in_flight = steps;
  for (std::size_t i = 0; i < steps; ++i) {
    try {
      const api::SolveResult result =
          client.delta(trace.deltas[i], "d" + std::to_string(i));
      ASSERT_TRUE(result.ok()) << result.error;
    } catch (const net::ConnectionError&) {
      in_flight = i;
      break;
    } catch (const net::TimedOut&) {
      in_flight = i;
      break;
    }
  }
  ASSERT_LT(in_flight, steps) << "injected SIGKILL never hit";
  ASSERT_EQ(in_flight, commits[kill_commit - 1]);
  ASSERT_EQ(client.revision(), kill_commit - 1);
  ASSERT_NE(client.session(), 0u) << "transport loss must not end the session";

  const int status = server.wait_status();
  ASSERT_TRUE(WIFSIGNALED(status));
  ASSERT_EQ(WTERMSIG(status), SIGKILL);

  // Revive on the SAME port so the tracked client can find it again.
  args.insert(args.end(), {"--port", std::to_string(port)});
  ServerProc revived = spawn_server(args, "", 0);
  ASSERT_EQ(revived.port, port);
  await_ready(port);

  // The interrupted delta, replayed through the wrapper: reconnect +
  // resume_session + resend under the pre-crash expect_revision.
  const api::SolveResult resent =
      client.delta(trace.deltas[in_flight], "resend");
  ASSERT_TRUE(resent.ok()) << resent.error;
  EXPECT_EQ(client.revision(), kill_commit);
  EXPECT_GE(client.stats().resumes, 1u);
  if (api::stat_bool(resent.stats, "online.duplicate", false)) {
    EXPECT_GE(client.stats().duplicate_acks, 1u);
  }

  for (std::size_t i = in_flight + 1; i < steps; ++i) {
    const api::SolveResult result =
        client.delta(trace.deltas[i], "t" + std::to_string(i));
    ASSERT_TRUE(result.ok()) << result.error;
  }
  EXPECT_EQ(client.revision(), commits.size());
  client.close_session();
  // Hang up first: a connection left open would hold the drain until its
  // force-close backstop instead of the clean exit asserted here.
  client.close();

  ::kill(revived.pid, SIGTERM);
  const int drained = revived.wait_status();
  EXPECT_TRUE(WIFEXITED(drained));
  EXPECT_EQ(WEXITSTATUS(drained), 0);
}

}  // namespace
}  // namespace bagsched
