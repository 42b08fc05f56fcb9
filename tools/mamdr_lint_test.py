#!/usr/bin/env python3
"""Unit tests for tools/mamdr_lint.py rule matching.

Each rule gets a positive fixture (must flag) and a negative fixture (must
stay silent), plus suppression-comment and scoping cases.

Run directly (``python3 tools/mamdr_lint_test.py``) or via ctest.
"""

import sys
import unittest

import mamdr_lint


def rules(findings):
    return [f.rule for f in findings]


class KernelAtRule(unittest.TestCase):
    def test_flags_at_in_tensor_kernel(self):
        findings = mamdr_lint.lint_text(
            "src/tensor/tensor_ops.cc",
            "void F(Tensor* t) {\n  t->x = y.at(3);\n}\n")
        self.assertIn("kernel-at", rules(findings))
        self.assertEqual(findings[0].line, 2)

    def test_flags_at_in_nn(self):
        findings = mamdr_lint.lint_text(
            "src/nn/linear.cc", "float v = w.at(0, 1);\n")
        self.assertIn("kernel-at", rules(findings))

    def test_flags_at_in_autograd(self):
        findings = mamdr_lint.lint_text(
            "src/autograd/x.cc", "  gi.at(i) = g.at(i);\n")
        self.assertEqual(rules(findings), ["kernel-at"])

    def test_flags_at_in_models(self):
        findings = mamdr_lint.lint_text(
            "src/models/x.cc", "labels.at(i, 0) = y;\n")
        self.assertEqual(rules(findings), ["kernel-at"])

    def test_kernel_at_allow_comment(self):
        findings = mamdr_lint.lint_text(
            "src/autograd/ops_basic.cc",
            "const float orig = val.at(i);  // mamdr-lint: allow(kernel-at)\n")
        self.assertNotIn("kernel-at", rules(findings))

    def test_ignores_at_outside_kernel_dirs(self):
        findings = mamdr_lint.lint_text(
            "src/core/mamdr.cc", "float v = w.at(0, 1);\n")
        self.assertNotIn("kernel-at", rules(findings))

    def test_ignores_at_in_comment(self):
        findings = mamdr_lint.lint_text(
            "src/tensor/tensor.cc", "// prefer data() over x.at(i)\n")
        self.assertNotIn("kernel-at", rules(findings))

    def test_suppression_comment(self):
        findings = mamdr_lint.lint_text(
            "src/tensor/tensor.cc",
            "float v = x.at(1);  // mamdr-lint: allow(kernel-at)\n")
        self.assertNotIn("kernel-at", rules(findings))

    def test_method_definition_is_not_a_call(self):
        findings = mamdr_lint.lint_text(
            "src/tensor/tensor.h",
            "#ifndef MAMDR_TENSOR_TENSOR_H_\n"
            "#define MAMDR_TENSOR_TENSOR_H_\n"
            "float& at(int64_t i);\n"
            "#endif  // MAMDR_TENSOR_TENSOR_H_\n")
        self.assertEqual(rules(findings), [])


class KernelDoubleRule(unittest.TestCase):
    def test_flags_double_accumulator_in_tensor(self):
        findings = mamdr_lint.lint_text(
            "src/tensor/tensor_ops.cc", "  double acc = 0.0;\n")
        self.assertEqual(rules(findings), ["kernel-double"])

    def test_flags_long_double(self):
        findings = mamdr_lint.lint_text(
            "src/tensor/tensor_ops.cc", "  long double acc = 0.0;\n")
        self.assertEqual(rules(findings), ["kernel-double"])

    def test_static_cast_to_double_is_fine(self):
        findings = mamdr_lint.lint_text(
            "src/tensor/tensor_ops.cc",
            "  acc += static_cast<double>(p[i]);\n")
        self.assertEqual(rules(findings), [])

    def test_double_outside_tensor_is_fine(self):
        findings = mamdr_lint.lint_text(
            "src/metrics/auc.cc", "  double acc = 0.0;\n")
        self.assertEqual(rules(findings), [])

    def test_allow_comment(self):
        findings = mamdr_lint.lint_text(
            "src/tensor/tensor_ops.cc",
            "  double acc = 0.0;  // mamdr-lint: allow(kernel-double)\n")
        self.assertEqual(rules(findings), [])


class RawRandRule(unittest.TestCase):
    def test_flags_rand_in_src(self):
        findings = mamdr_lint.lint_text(
            "src/data/synthetic.cc", "  int r = rand() % 10;\n")
        self.assertEqual(rules(findings), ["raw-rand"])

    def test_flags_srand_and_std_rand(self):
        findings = mamdr_lint.lint_text(
            "src/core/maml.cc", "srand(42);\nint x = std::rand();\n")
        self.assertEqual(rules(findings), ["raw-rand", "raw-rand"])

    def test_bench_and_tools_exempt(self):
        for path in ("bench/bench_kernels.cpp", "tools/mamdr_datagen.cc"):
            findings = mamdr_lint.lint_text(path, "int r = rand();\n")
            self.assertEqual(rules(findings), [], path)

    def test_identifier_containing_rand_is_fine(self):
        findings = mamdr_lint.lint_text(
            "src/common/random.cc", "  float v = my_rand(x); Rng rng(3);\n")
        self.assertEqual(rules(findings), [])


class IostreamPrintRule(unittest.TestCase):
    def test_flags_cout_in_src(self):
        findings = mamdr_lint.lint_text(
            "src/core/framework.cc", '  std::cout << "done";\n')
        self.assertEqual(rules(findings), ["iostream-print"])

    def test_flags_cerr_in_tests(self):
        findings = mamdr_lint.lint_text(
            "tests/foo_test.cc", "  std::cerr << x;\n")
        self.assertEqual(rules(findings), ["iostream-print"])

    def test_tools_exempt(self):
        findings = mamdr_lint.lint_text(
            "tools/mamdr_run.cc", "  std::cout << report;\n")
        self.assertEqual(rules(findings), [])


class RawClockRule(unittest.TestCase):
    def test_flags_steady_clock_in_core(self):
        findings = mamdr_lint.lint_text(
            "src/core/framework.cc",
            "  auto t0 = std::chrono::steady_clock::now();\n")
        self.assertEqual(rules(findings), ["raw-clock"])

    def test_flags_unqualified_use_in_bench(self):
        findings = mamdr_lint.lint_text(
            "bench/bench_kernels.cpp",
            "using std::chrono::steady_clock;\n"
            "auto t = steady_clock::now();\n")
        self.assertEqual(rules(findings), ["raw-clock"])

    def test_obs_and_common_exempt(self):
        for path in ("src/obs/clock.cc", "src/common/retry.cc"):
            findings = mamdr_lint.lint_text(
                path, "  auto t = std::chrono::steady_clock::now();\n")
            self.assertEqual(rules(findings), [], path)

    def test_comment_mention_is_fine(self):
        findings = mamdr_lint.lint_text(
            "src/core/framework.cc",
            "// wraps steady_clock::now() behind obs::MonotonicMicros\n")
        self.assertEqual(rules(findings), [])

    def test_allow_comment_rejected_everywhere(self):
        # RAW_CLOCK_COMMENT_ALLOWED is empty since the metrics server's
        # deadline moved off raw clock reads: the allow comment works
        # nowhere, including the formerly blessed file.
        for path in ("src/serve/metrics_server.cc",
                     "src/ps/worker.cc", "src/serve/recommender.cc",
                     "tests/serve_test.cc"):
            findings = mamdr_lint.lint_text(
                path,
                "  auto t = steady_clock::now();"
                "  // mamdr-lint: allow(raw-clock)\n")
            self.assertEqual(rules(findings), ["raw-clock"], path)

    def test_other_clocks_not_flagged(self):
        findings = mamdr_lint.lint_text(
            "src/core/framework.cc",
            "  auto t = std::chrono::system_clock::now();\n")
        self.assertEqual(rules(findings), [])


class NetRawClockRule(unittest.TestCase):
    def test_flags_every_spelling_in_ps_net(self):
        for snippet in (
                "auto t = std::chrono::steady_clock::now();\n",
                "auto t = std::chrono::system_clock::now();\n",
                "auto t = std::chrono::high_resolution_clock::now();\n",
                "clock_gettime(CLOCK_MONOTONIC, &ts);\n",
                "gettimeofday(&tv, nullptr);\n"):
            findings = mamdr_lint.lint_text(
                "src/ps/net/shard_server.cc", snippet)
            self.assertIn("net-raw-clock", rules(findings), snippet)

    def test_steady_clock_in_ps_net_flags_both_rules(self):
        # steady_clock::now() in ps/net trips the general funnel rule and
        # the stricter net rule; both fire so neither weakening goes
        # unnoticed.
        findings = mamdr_lint.lint_text(
            "src/ps/net/net_ps_client.cc",
            "  auto t = std::chrono::steady_clock::now();\n")
        self.assertIn("net-raw-clock", rules(findings))
        self.assertIn("raw-clock", rules(findings))

    def test_allow_comment_is_not_honored(self):
        findings = mamdr_lint.lint_text(
            "src/ps/net/wire.cc",
            "  gettimeofday(&tv, nullptr);"
            "  // mamdr-lint: allow(net-raw-clock)\n")
        self.assertEqual(rules(findings), ["net-raw-clock"])

    def test_outside_ps_net_not_covered(self):
        # system_clock in src/core is (only) the general rule's business —
        # which deliberately does not match it.
        findings = mamdr_lint.lint_text(
            "src/core/framework.cc",
            "  auto t = std::chrono::system_clock::now();\n")
        self.assertNotIn("net-raw-clock", rules(findings))

    def test_comment_mention_is_fine(self):
        findings = mamdr_lint.lint_text(
            "src/ps/net/shard_server.cc",
            "// never call gettimeofday( here; use obs::MonotonicMicros\n")
        self.assertEqual(rules(findings), [])

    def test_monotonic_micros_is_fine(self):
        findings = mamdr_lint.lint_text(
            "src/ps/net/shard_server.cc",
            "  const int64_t now = obs::MonotonicMicros();\n")
        self.assertEqual(rules(findings), [])


class KernelParallelRule(unittest.TestCase):
    def test_flags_std_thread_in_every_numeric_layer(self):
        for path in ("src/tensor/tensor_ops.cc", "src/autograd/ops.cc",
                     "src/nn/layers.cc", "src/optim/optimizers.cc"):
            findings = mamdr_lint.lint_text(
                path, "  std::thread worker([&] { Split(0, m); });\n")
            self.assertEqual(rules(findings), ["kernel-parallel"], path)

    def test_flags_the_includes(self):
        for include in ('#include "common/thread_pool.h"\n',
                        "#include <thread>\n"):
            findings = mamdr_lint.lint_text("src/tensor/tensor_ops.cc",
                                            include)
            self.assertEqual(rules(findings), ["kernel-parallel"], include)

    def test_allow_comment_is_not_honored(self):
        findings = mamdr_lint.lint_text(
            "src/nn/layers.cc",
            "  std::thread t(fn);"
            "  // mamdr-lint: allow(kernel-parallel)\n")
        self.assertEqual(rules(findings), ["kernel-parallel"])

    def test_evaluator_and_common_are_not_covered(self):
        # The evaluation fan-out and the pool itself fan out independent
        # units.
        for path in ("src/metrics/evaluator.cc", "src/common/thread_pool.cc"):
            findings = mamdr_lint.lint_text(
                path,
                '#include "common/thread_pool.h"\n'
                "#include <thread>\n"
                "  std::thread t(fn);\n")
            self.assertEqual(rules(findings), [], path)

    def test_comment_mention_and_other_names_are_fine(self):
        findings = mamdr_lint.lint_text(
            "src/tensor/tensor_ops.cc",
            "// no std::thread here: kernels are serial\n"
            "  std::this_thread::yield();\n"
            "  my::std_thread_count(0);\n"
            '#include "tensor/thread_pool_stats.h"\n')
        self.assertEqual(rules(findings), [])


class NativeMutexRule(unittest.TestCase):
    def test_flags_std_mutex_member(self):
        findings = mamdr_lint.lint_text(
            "src/serve/recommender.h",
            "#ifndef MAMDR_SERVE_RECOMMENDER_H_\n"
            "#define MAMDR_SERVE_RECOMMENDER_H_\n"
            "  std::mutex mu_;\n"
            "#endif  // MAMDR_SERVE_RECOMMENDER_H_\n")
        self.assertEqual(rules(findings), ["native-mutex"])
        self.assertEqual(findings[0].line, 3)

    def test_flags_lock_guard_and_unique_lock(self):
        findings = mamdr_lint.lint_text(
            "src/core/framework.cc",
            "  std::lock_guard<std::mutex> a(m);\n"
            "  std::unique_lock<std::mutex> b(m);\n")
        self.assertEqual(rules(findings), ["native-mutex", "native-mutex"])

    def test_flags_condition_variable_and_variants(self):
        for decl in ("std::condition_variable cv;",
                     "std::condition_variable_any cv;",
                     "std::shared_mutex sm;",
                     "std::recursive_mutex rm;",
                     "std::scoped_lock l(m);"):
            findings = mamdr_lint.lint_text(
                "src/ps/worker.cc", f"  {decl}\n")
            self.assertEqual(rules(findings), ["native-mutex"], decl)

    def test_wrapper_header_exempt(self):
        findings = mamdr_lint.lint_text(
            "src/common/mutex.h",
            "#ifndef MAMDR_COMMON_MUTEX_H_\n"
            "#define MAMDR_COMMON_MUTEX_H_\n"
            "  std::mutex mu_;\n"
            "  std::condition_variable cv_;\n"
            "#endif  // MAMDR_COMMON_MUTEX_H_\n")
        self.assertEqual(rules(findings), [])

    def test_allow_comment(self):
        findings = mamdr_lint.lint_text(
            "src/common/lockdep.cc",
            "  std::mutex mu;"
            "  // mamdr-lint: allow(native-mutex) lockdep internals\n")
        self.assertEqual(rules(findings), [])

    def test_tests_and_bench_also_covered(self):
        # Unlike raw-rand, the rule has no tools/bench exemption: a raw
        # mutex in a test deadlocks just as invisibly.
        for path in ("tests/foo_test.cc", "bench/bench_kernels.cpp",
                     "tools/mamdr_run.cc"):
            findings = mamdr_lint.lint_text(path, "  std::mutex m;\n")
            self.assertEqual(rules(findings), ["native-mutex"], path)

    def test_comment_mention_is_fine(self):
        findings = mamdr_lint.lint_text(
            "src/serve/recommender.cc",
            "// replaced the std::mutex with mamdr::Mutex\n")
        self.assertEqual(rules(findings), [])

    def test_mamdr_wrappers_are_fine(self):
        findings = mamdr_lint.lint_text(
            "src/serve/recommender.cc",
            "  Mutex mu;\n  MutexLock lock(&mu);\n  CondVar cv;\n")
        self.assertEqual(rules(findings), [])


class RawSocketRule(unittest.TestCase):
    def test_flags_each_banned_call(self):
        for call in ("::socket(AF_INET, SOCK_STREAM, 0)",
                     "::connect(fd, addr, len)",
                     "::bind(fd, addr, len)",
                     "::listen(fd, 16)",
                     "::accept(fd, nullptr, nullptr)",
                     "::recv(fd, buf, n, 0)",
                     "::send(fd, buf, n, 0)",
                     "::recvmsg(fd, &msg, 0)",
                     "::sendmsg(fd, &msg, MSG_NOSIGNAL)",
                     "::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &o, so)",
                     "::shutdown(fd, SHUT_RDWR)"):
            findings = mamdr_lint.lint_text(
                "src/ps/net/shard_server.cc", f"  int n = {call};\n")
            self.assertEqual(rules(findings), ["raw-socket"], call)

    def test_pool_helpers_are_not_exempt(self):
        # The connection pool lives next to the transport but is NOT the
        # wrapper file: its liveness probe and redial must go through the
        # cnet helpers (ProbeConnAlive, ConnectLoopback), never the raw
        # calls — even the exact probe idiom net.cc itself uses.
        findings = mamdr_lint.lint_text(
            "src/ps/net/connection_pool.cc",
            "  char b;\n"
            "  const ssize_t n = ::recv(fd, &b, 1, MSG_PEEK | MSG_DONTWAIT);\n")
        self.assertEqual(rules(findings), ["raw-socket"])

    def test_pool_wrapper_calls_are_fine(self):
        findings = mamdr_lint.lint_text(
            "src/ps/net/connection_pool.cc",
            "  if (!cnet::ProbeConnAlive(slot.fd.get())) stale = true;\n"
            "  auto conn = cnet::ConnectLoopback(port);\n"
            "  cnet::ScopedFd fd(conn.value());\n"
            "  cnet::ShutdownFd(fd.get());\n")
        self.assertEqual(rules(findings), [])

    def test_wrapper_file_exempt(self):
        findings = mamdr_lint.lint_text(
            "src/common/net.cc",
            "  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);\n"
            "  ::shutdown(fd, SHUT_RDWR);\n")
        self.assertEqual(rules(findings), [])

    def test_qualified_names_are_fine(self):
        # std::bind / a namespace's own connect/send must not match; only
        # the global-scope `::` qualification counts.
        findings = mamdr_lint.lint_text(
            "src/ps/net/net_ps_client.cc",
            "  auto f = std::bind(&F, this);\n"
            "  net::SendAll(fd, p, n);\n"
            "  auto r = mamdr::net::ConnectLoopback(port);\n"
            "  client.connect(port);\n")
        self.assertEqual(rules(findings), [])

    def test_tests_and_tools_also_covered(self):
        for path in ("tests/foo_test.cc", "tools/mamdr_run.cc",
                     "bench/bench_ps.cpp"):
            findings = mamdr_lint.lint_text(
                path, "  ::connect(fd, addr, len);\n")
            self.assertEqual(rules(findings), ["raw-socket"], path)

    def test_allow_comment(self):
        findings = mamdr_lint.lint_text(
            "tests/raw_client_test.cc",
            "  ::send(fd, p, n, 0);  "
            "// mamdr-lint: allow(raw-socket) deliberate raw client\n")
        self.assertEqual(rules(findings), [])

    def test_comment_mention_is_fine(self):
        findings = mamdr_lint.lint_text(
            "src/ps/net/wire.cc",
            "// bans direct ::socket()/::connect() calls outside net.cc\n")
        self.assertEqual(rules(findings), [])


class HeaderGuardRule(unittest.TestCase):
    GOOD = ("#ifndef MAMDR_COMMON_FLAGS_H_\n"
            "#define MAMDR_COMMON_FLAGS_H_\n"
            "int x;\n"
            "#endif  // MAMDR_COMMON_FLAGS_H_\n")

    def test_correct_guard_passes(self):
        findings = mamdr_lint.lint_text("src/common/flags.h", self.GOOD)
        self.assertEqual(rules(findings), [])

    def test_src_prefix_is_dropped(self):
        self.assertEqual(mamdr_lint.expected_guard("src/ps/worker.h"),
                         "MAMDR_PS_WORKER_H_")
        self.assertEqual(mamdr_lint.expected_guard("tests/test_util.h"),
                         "MAMDR_TESTS_TEST_UTIL_H_")
        self.assertEqual(mamdr_lint.expected_guard("bench/bench_util.h"),
                         "MAMDR_BENCH_BENCH_UTIL_H_")

    def test_wrong_guard_flagged(self):
        text = self.GOOD.replace("MAMDR_COMMON_FLAGS_H_", "FLAGS_H")
        findings = mamdr_lint.lint_text("src/common/flags.h", text)
        self.assertEqual(rules(findings), ["header-guard"])

    def test_missing_guard_flagged(self):
        findings = mamdr_lint.lint_text("src/common/flags.h", "int x;\n")
        self.assertEqual(rules(findings), ["header-guard"])

    def test_pragma_once_flagged(self):
        findings = mamdr_lint.lint_text(
            "src/common/flags.h", "#pragma once\nint x;\n")
        self.assertEqual(rules(findings), ["header-guard"])

    def test_define_mismatch_flagged(self):
        text = ("#ifndef MAMDR_COMMON_FLAGS_H_\n"
                "#define MAMDR_COMMON_FLAGS_WRONG_\n"
                "#endif\n")
        findings = mamdr_lint.lint_text("src/common/flags.h", text)
        self.assertEqual(rules(findings), ["header-guard"])

    def test_cc_files_have_no_guard_requirement(self):
        findings = mamdr_lint.lint_text("src/common/flags.cc", "int x;\n")
        self.assertEqual(rules(findings), [])


class IgnoredStatusRule(unittest.TestCase):
    def test_flags_bare_call_in_ps(self):
        findings = mamdr_lint.lint_text(
            "src/ps/worker.cc", "  client_->PullDense(&out);\n")
        self.assertEqual(rules(findings), ["ignored-status"])

    def test_flags_namespace_qualified_call_in_checkpoint(self):
        findings = mamdr_lint.lint_text(
            "src/checkpoint/checkpoint.cc",
            "  checkpoint::SaveTensors(named, path);\n")
        self.assertEqual(rules(findings), ["ignored-status"])

    def test_checked_call_is_fine(self):
        for stmt in (
                "  Status s = client_->PullDense(&out);\n",
                "  return client_->PullDense(&out);\n",
                "  MAMDR_RETURN_IF_ERROR(client_->PullDense(&out));\n",
                "  if (!worker->RunDnEpoch().ok()) return;\n",
        ):
            findings = mamdr_lint.lint_text("src/ps/worker.cc", stmt)
            self.assertEqual(rules(findings), [], stmt)

    def test_continuation_line_is_not_a_statement(self):
        # The wrapped argument of a multi-line macro/assignment starts with
        # the op name but has unbalanced parens — must not be flagged.
        findings = mamdr_lint.lint_text(
            "src/ps/distributed_mamdr.cc",
            "  MAMDR_ASSIGN_OR_RETURN(auto named,\n"
            "                         checkpoint::LoadTensors(path));\n")
        self.assertEqual(rules(findings), [])

    def test_outside_status_dirs_is_fine(self):
        findings = mamdr_lint.lint_text(
            "src/core/mamdr.cc", "  mamdr.Train();\n")
        self.assertEqual(rules(findings), [])

    def test_allow_comment(self):
        findings = mamdr_lint.lint_text(
            "src/ps/ps_client.cc",
            "  server_->PullDense(out);"
            "  // mamdr-lint: allow(ignored-status)\n")
        self.assertEqual(rules(findings), [])

    def test_declaration_is_not_a_call(self):
        findings = mamdr_lint.lint_text(
            "src/ps/worker.cc", "Status Worker::RunDnEpoch() {\n")
        self.assertEqual(rules(findings), [])


class HotPathLockRule(unittest.TestCase):
    MARKER = "// mamdr-lint: hot-path — request code is lock-free\n"

    def test_flags_lock_in_marked_file(self):
        findings = mamdr_lint.lint_text(
            "src/serve/recommender.cc",
            self.MARKER + "void F() {\n  MutexLock lock(&mu_);\n}\n")
        self.assertEqual(rules(findings), ["hot-path-lock"])
        self.assertEqual(findings[0].line, 3)

    def test_unmarked_file_is_untouched(self):
        findings = mamdr_lint.lint_text(
            "src/serve/recommender.cc",
            "void F() {\n  MutexLock lock(&mu_);\n}\n")
        self.assertEqual(rules(findings), [])

    def test_allow_comment(self):
        findings = mamdr_lint.lint_text(
            "src/serve/recommender.cc",
            self.MARKER
            + "  MutexLock lock(&mu_);"
            "  // mamdr-lint: allow(hot-path-lock) setup path\n")
        self.assertEqual(rules(findings), [])

    def test_marker_works_anywhere_in_tree(self):
        # The rule is opt-in by marker, not by directory: a marked core
        # file gets the same scrutiny as serve/.
        findings = mamdr_lint.lint_text(
            "src/core/framework.cc",
            self.MARKER + "  MutexLock lock(&mu_);\n")
        self.assertEqual(rules(findings), ["hot-path-lock"])

    def test_comment_mention_is_fine(self):
        findings = mamdr_lint.lint_text(
            "src/serve/recommender.cc",
            self.MARKER + "// replaced the per-request MutexLock here\n")
        self.assertEqual(rules(findings), [])

    def test_each_unallowed_lock_is_flagged(self):
        findings = mamdr_lint.lint_text(
            "src/serve/recommender.cc",
            self.MARKER
            + "  MutexLock a(&mu_);  // mamdr-lint: allow(hot-path-lock)\n"
            "  MutexLock b(&mu_);\n"
            "  MutexLock c(&mu_);\n")
        self.assertEqual(rules(findings),
                         ["hot-path-lock", "hot-path-lock"])


class SpanLiteralRule(unittest.TestCase):
    def test_flags_string_wrapped_literal(self):
        findings = mamdr_lint.lint_text(
            "src/ps/net/net_ps_client.cc",
            '  obs::ContextSpan op_span(std::string("ps.op:ping"), "ps.client");\n')
        self.assertEqual(rules(findings), ["span-literal"])
        self.assertEqual(findings[0].line, 1)

    def test_flags_wrapped_argument_on_next_line(self):
        findings = mamdr_lint.lint_text(
            "src/core/x.cc",
            "  obs::ContextSpan span(\n"
            '      std::string("dr_phase"), "mamdr");\n')
        self.assertEqual(rules(findings), ["span-literal"])
        self.assertEqual(findings[0].line, 2)

    def test_flags_make_unique(self):
        findings = mamdr_lint.lint_text(
            "src/ps/x.cc",
            "auto s = std::make_unique<obs::ContextSpan>("
            'std::string("shard"), "ps");\n')
        self.assertEqual(rules(findings), ["span-literal"])

    def test_bare_literal_is_fine(self):
        findings = mamdr_lint.lint_text(
            "src/ps/net/net_ps_client.cc",
            '  obs::ContextSpan op_span("ps.op:ping", "ps.client");\n')
        self.assertEqual(rules(findings), [])

    def test_dynamic_name_is_fine(self):
        findings = mamdr_lint.lint_text(
            "src/ps/net/shard_server.cc",
            "  obs::ContextSpan handle_span(\n"
            '      std::string("ps.shard.handle:") + PsOpName(op), "ps.shard",\n'
            "      ctx, &recorder_);\n")
        self.assertEqual(rules(findings), [])

    def test_comment_mention_is_fine(self):
        findings = mamdr_lint.lint_text(
            "src/obs/x.h",
            '// never write ContextSpan s(std::string("x"), "c");\n')
        self.assertNotIn("span-literal", rules(findings))

    def test_allow_comment(self):
        findings = mamdr_lint.lint_text(
            "tests/x.cc",
            'ContextSpan s(std::string("x"), "c");  '
            "// mamdr-lint: allow(span-literal)\n")
        self.assertEqual(rules(findings), [])


class PassLoopRule(unittest.TestCase):
    def test_flags_batcher_loop_in_core(self):
        findings = mamdr_lint.lint_text(
            "src/core/graddrop.cc",
            "  while (batcher.Next(&batch)) {\n    opt->Step();\n  }\n")
        self.assertEqual(rules(findings), ["pass-loop"])
        self.assertEqual(findings[0].line, 1)

    def test_flags_loop_in_ps_worker(self):
        findings = mamdr_lint.lint_text(
            "src/ps/worker.cc", "while ( sup . Next ( &b ) ) {}\n")
        self.assertEqual(rules(findings), ["pass-loop"])

    def test_allow_comment_is_not_honored(self):
        findings = mamdr_lint.lint_text(
            "src/core/maml.cc",
            "while (sup.Next(&batch)) {  // mamdr-lint: allow(pass-loop)\n")
        self.assertEqual(rules(findings), ["pass-loop"])

    def test_train_pass_home_is_exempt(self):
        findings = mamdr_lint.lint_text(
            "src/core/framework.cc", "  while (batcher.Next(&batch)) {\n")
        self.assertNotIn("pass-loop", rules(findings))

    def test_interleaved_batchers_are_fine(self):
        findings = mamdr_lint.lint_text(
            "src/core/pcgrad.cc",
            "  if (!batchers[static_cast<size_t>(d)].Next(&batch)) continue;\n"
            "  while (any) {\n")
        self.assertNotIn("pass-loop", rules(findings))

    def test_outside_src_is_fine(self):
        findings = mamdr_lint.lint_text(
            "tests/batch_test.cc", "  while (b.Next(&batch)) ++n;\n")
        self.assertNotIn("pass-loop", rules(findings))

    def test_comment_mention_is_fine(self):
        findings = mamdr_lint.lint_text(
            "src/core/reptile.cc", "// not a while (batcher.Next(&batch)) loop\n")
        self.assertNotIn("pass-loop", rules(findings))


class TreeIntegration(unittest.TestCase):
    def test_repository_is_clean(self):
        root = mamdr_lint.os.path.dirname(
            mamdr_lint.os.path.dirname(
                mamdr_lint.os.path.abspath(mamdr_lint.__file__)))
        findings = []
        for rel in mamdr_lint.discover_files(root):
            findings.extend(mamdr_lint.lint_file(root, rel))
        self.assertEqual([f.render() for f in findings], [])

    def test_discover_skips_non_cpp(self):
        root = mamdr_lint.os.path.dirname(
            mamdr_lint.os.path.dirname(
                mamdr_lint.os.path.abspath(mamdr_lint.__file__)))
        for rel in mamdr_lint.discover_files(root):
            self.assertTrue(rel.endswith(mamdr_lint.CPP_EXTENSIONS), rel)


if __name__ == "__main__":
    sys.exit(unittest.main())
