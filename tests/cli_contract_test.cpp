/// The command-line contract of the shipped tools (tools/exit_codes.hpp):
/// exit 0 = success, 1 = runtime failure (diagnostics on stderr),
/// 2 = usage error. Enforced two ways: statically, by grepping the tool
/// sources (via SPMAP_SOURCE_DIR) for convention violations, and
/// behaviorally, by running the built spmap_cli (via SPMAP_CLI_PATH)
/// against bad invocations and checking the codes.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>

#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "util/rng.hpp"
#include "workflows/workflows.hpp"

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

const std::vector<std::string>& tool_sources() {
  static const std::vector<std::string> sources = {
      std::string(SPMAP_SOURCE_DIR) + "/tools/spmap_cli.cpp",
      std::string(SPMAP_SOURCE_DIR) + "/tools/spmap_loadgen.cpp",
  };
  return sources;
}

std::size_t count_occurrences(const std::string& haystack,
                              const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

// ---- static source audit ---------------------------------------------------

TEST(CliContractSource, ToolsUseTheNamedExitCodes) {
  for (const std::string& path : tool_sources()) {
    const std::string source = read_file(path);
    EXPECT_NE(source.find("#include \"exit_codes.hpp\""), std::string::npos)
        << path << " must include tools/exit_codes.hpp";
    EXPECT_NE(source.find("kExitUsage"), std::string::npos) << path;
    EXPECT_NE(source.find("kExitFailure"), std::string::npos) << path;
  }
}

TEST(CliContractSource, NoBareNumericExitCodes) {
  // `return 0;` at function scope is fine in helpers, but the magic
  // numbers 1 and 2 as exit codes must not appear: every non-zero exit
  // goes through the named constants so the contract is greppable.
  for (const std::string& path : tool_sources()) {
    const std::string source = read_file(path);
    EXPECT_EQ(count_occurrences(source, "return 1;"), 0u)
        << path << " returns a bare 1 somewhere";
    EXPECT_EQ(count_occurrences(source, "return 2;"), 0u)
        << path << " returns a bare 2 somewhere";
    EXPECT_EQ(count_occurrences(source, "exit(1)"), 0u) << path;
    EXPECT_EQ(count_occurrences(source, "exit(2)"), 0u) << path;
  }
}

TEST(CliContractSource, DiagnosticsGoToStderr) {
  // Error reporting is `fprintf(stderr, "<tool>: ...")`; the tool-name
  // prefix must never show up in a stdout printf.
  for (const std::string& path : tool_sources()) {
    const std::string source = read_file(path);
    EXPECT_GT(count_occurrences(source, "fprintf(stderr,"), 0u) << path;
    EXPECT_EQ(count_occurrences(source, "printf(\"spmap_cli:"), 0u) << path;
    EXPECT_EQ(count_occurrences(source, "printf(\"spmap_loadgen:"), 0u)
        << path;
  }
}

// ---- behavioral audit of the built binary ----------------------------------

#ifdef SPMAP_CLI_PATH

/// Runs the CLI with stdout/stderr redirected; returns the exit code.
int run_cli(const std::string& arguments, const std::string& stdout_file,
            const std::string& stderr_file) {
  const std::string command = std::string(SPMAP_CLI_PATH) + " " + arguments +
                              " >" + stdout_file + " 2>" + stderr_file;
  const int raw = std::system(command.c_str());
  EXPECT_TRUE(WIFEXITED(raw)) << command;
  return WEXITSTATUS(raw);
}

struct CliCase {
  const char* name;
  std::string arguments;
  int expected_exit;
};

TEST(CliContractBinary, ExitCodesMatchTheContract) {
  const std::string tmp = ::testing::TempDir();
  const std::vector<CliCase> cases = {
      {"no_arguments", "", 2},
      {"unknown_subcommand", "frobnicate", 2},
      {"unknown_flag", "generate --bogus 1", 1},
      {"missing_input_file", "evaluate --graph /nonexistent.json "
                             "--mapping /nonexistent.json", 1},
      {"daemon_bad_endpoint", "daemon --listen bogus^spec", 1},
      {"generate_ok", "generate --type sp --tasks 6 --seed 1 --out " + tmp +
                          "/cli_contract_graph.json", 0},
  };
  for (const CliCase& c : cases) {
    const std::string out = tmp + "/cli_contract_stdout";
    const std::string err = tmp + "/cli_contract_stderr";
    EXPECT_EQ(run_cli(c.arguments, out, err), c.expected_exit) << c.name;
    if (c.expected_exit != 0) {
      EXPECT_FALSE(read_file(err).empty())
          << c.name << ": non-zero exit must explain itself on stderr";
      // Diagnostics never leak to stdout.
      EXPECT_EQ(read_file(out).find("spmap_cli:"), std::string::npos)
          << c.name;
    } else {
      // Progress notes on stderr are fine; error-prefixed lines are not.
      EXPECT_EQ(read_file(err).find("spmap_cli:"), std::string::npos)
          << c.name;
    }
  }
}

/// `generate`'s output before it went through the workload spec: the
/// generator calls the command used to make by hand, kept as the oracle.
std::string reference_generate(const std::string& type, std::size_t tasks,
                               std::size_t extra_edges,
                               spmap::WorkflowFamily family, std::size_t width,
                               std::uint64_t seed) {
  spmap::Rng rng(seed);
  spmap::Dag dag;
  spmap::TaskAttrs attrs;
  if (type == "workflow") {
    spmap::WorkflowInstance inst = spmap::generate_workflow(family, width, rng);
    dag = std::move(inst.dag);
    attrs = std::move(inst.attrs);
  } else {
    dag = spmap::generate_sp_dag(tasks, rng);
    if (type == "almost-sp") {
      dag = spmap::add_random_edges(dag, extra_edges, rng);
    }
    attrs = spmap::random_task_attrs(dag, rng);
  }
  return spmap::to_json(dag, attrs) + "\n";
}

TEST(CliContractBinary, GenerateIsByteIdenticalPerSeed) {
  const std::string tmp = ::testing::TempDir();
  const std::string out = tmp + "/cli_generate.json";
  const std::string log = tmp + "/cli_generate_stderr";
  for (const std::uint64_t seed : {1u, 7u, 2024u}) {
    // Defaults: 30 tasks, 10 extra edges, montage at width 12.
    EXPECT_EQ(run_cli("generate --seed " + std::to_string(seed) +
                          " --out " + out, "/dev/null", log), 0);
    EXPECT_EQ(read_file(out), reference_generate("sp", 30, 10,
                                                 spmap::WorkflowFamily::Montage,
                                                 12, seed));
    EXPECT_EQ(run_cli("generate --type sp --tasks 47 --seed " +
                          std::to_string(seed) + " --out " + out,
                      "/dev/null", log), 0);
    EXPECT_EQ(read_file(out), reference_generate("sp", 47, 10,
                                                 spmap::WorkflowFamily::Montage,
                                                 12, seed));
    EXPECT_EQ(run_cli("generate --type almost-sp --tasks 40 --extra-edges 6 "
                      "--seed " + std::to_string(seed) + " --out " + out,
                      "/dev/null", log), 0);
    EXPECT_EQ(read_file(out), reference_generate("almost-sp", 40, 6,
                                                 spmap::WorkflowFamily::Montage,
                                                 12, seed));
    for (const spmap::WorkflowFamily family : spmap::all_workflow_families()) {
      const std::string name = spmap::workflow_family_name(family);
      EXPECT_EQ(run_cli("generate --type workflow --family " + name +
                            " --width 5 --seed " + std::to_string(seed) +
                            " --out " + out, "/dev/null", log), 0)
          << name;
      EXPECT_EQ(read_file(out),
                reference_generate("workflow", 0, 0, family, 5, seed))
          << name;
    }
  }
}

#endif  // SPMAP_CLI_PATH

}  // namespace
