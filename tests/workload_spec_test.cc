// Spec-format and graph-builder tests: every error must name the offending
// spec location (origin:line, section, key), and every spec shipped under
// examples/specs/ must parse and build a graph.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>

#include "workloads/graph.h"
#include "workloads/spec.h"

namespace glider::workloads {
namespace {

::testing::AssertionResult ErrorMentions(
    const Status& status, std::initializer_list<const char*> bits) {
  if (status.ok()) return ::testing::AssertionFailure() << "expected an error";
  for (const char* bit : bits) {
    if (status.ToString().find(bit) == std::string::npos) {
      return ::testing::AssertionFailure()
             << "error '" << status.ToString() << "' does not mention '" << bit
             << "'";
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(SpecParseTest, SectionsGlobalsRepeatsAndComments) {
  constexpr std::string_view kText = R"(
# a comment
name = demo

[node writers]
type = action.create
config = first
config = second

[cluster]
slots_per_server = 8
)";
  auto spec = ParseSpec(kText, "demo.spec");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->Name(), "demo");
  const auto* node = spec->Find("node", "writers");
  ASSERT_NE(node, nullptr);
  // Repeated keys join with '\n' (multi-line action configs).
  auto config = node->GetString("config");
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(*config, "first\nsecond");
  ASSERT_NE(spec->Find("cluster"), nullptr);
  EXPECT_EQ(spec->Find("load"), nullptr);
}

TEST(SpecParseTest, ErrorsCarryOriginAndLine) {
  // Line 3 has no '=': the error must cite file:line and the bad text.
  auto spec = ParseSpec("name = x\n[node a]\nbogus line\n", "bad.spec");
  EXPECT_TRUE(ErrorMentions(spec.status(), {"bad.spec:3", "bogus line"}));

  spec = ParseSpec("[node]\n", "bad.spec");
  EXPECT_TRUE(ErrorMentions(spec.status(), {"bad.spec:1", "[node <name>]"}));

  spec = ParseSpec("[node a]\n[node a]\n", "bad.spec");
  EXPECT_TRUE(
      ErrorMentions(spec.status(), {"bad.spec:2", "duplicate node name 'a'"}));

  spec = ParseSpec("[wibble]\n", "bad.spec");
  EXPECT_TRUE(ErrorMentions(spec.status(), {"bad.spec:1", "[wibble]"}));

  spec = ParseSpec("[cluster]\n[cluster]\n", "bad.spec");
  EXPECT_TRUE(ErrorMentions(spec.status(), {"bad.spec:2", "duplicate"}));

  spec = ParseSpec("[node a\n", "bad.spec");
  EXPECT_TRUE(ErrorMentions(spec.status(), {"bad.spec:1", "unterminated"}));
}

TEST(SpecBuildTest, UnknownNodeTypeNamesNodeAndListsRegistered) {
  auto spec = ParseSpec("[node mystery]\ntype = no.such.node\n", "t.spec");
  ASSERT_TRUE(spec.ok());
  auto graph = BuildGraph(*spec);
  EXPECT_TRUE(ErrorMentions(graph.status(),
                            {"mystery", "no.such.node", "registered",
                             "faas.count_lines"}));
}

TEST(SpecBuildTest, MissingRequiredKeyNamesSectionAndKey) {
  // text.files requires `path`.
  auto spec = ParseSpec(
      "[node input]\ntype = text.files\ncount = 2\nbytes_each = 64\n",
      "t.spec");
  ASSERT_TRUE(spec.ok());
  auto graph = BuildGraph(*spec);
  EXPECT_TRUE(ErrorMentions(graph.status(), {"input", "'path'"}));
}

TEST(SpecBuildTest, UnknownKeyNamesNodeAndKey) {
  // A typo ("marker_rat") must be rejected, not silently ignored.
  auto spec = ParseSpec(
      "[node input]\ntype = text.files\npath = /x_{i}\ncount = 1\n"
      "bytes_each = 64\nmarker_rat = 0.5\n",
      "t.spec");
  ASSERT_TRUE(spec.ok());
  auto graph = BuildGraph(*spec);
  EXPECT_TRUE(
      ErrorMentions(graph.status(), {"input", "marker_rat", "text.files"}));
}

TEST(SpecBuildTest, MalformedNumberWithFallbackStillErrors) {
  auto spec = ParseSpec(
      "[node input]\ntype = text.files\npath = /x_{i}\ncount = banana\n"
      "bytes_each = 64\n",
      "t.spec");
  ASSERT_TRUE(spec.ok());
  auto graph = BuildGraph(*spec);
  EXPECT_TRUE(ErrorMentions(graph.status(), {"'count'", "banana"}));
}

TEST(SpecBuildTest, UnknownClusterAndGlobalKeysRejected) {
  auto spec = ParseSpec(
      "[cluster]\nslotz = 4\n[node d]\ntype = file.delete\npath = /x\n",
      "t.spec");
  ASSERT_TRUE(spec.ok());
  EXPECT_TRUE(ErrorMentions(BuildGraph(*spec).status(), {"slotz"}));

  spec = ParseSpec("nmae = typo\n[node d]\ntype = file.delete\npath = /x\n",
                   "t.spec");
  ASSERT_TRUE(spec.ok());
  EXPECT_TRUE(ErrorMentions(BuildGraph(*spec).status(), {"nmae"}));
}

// Stream sizes below 1 are refused at parse time: a zero chunk size would
// make every action write loop forever, a zero window would read from an
// empty in-flight queue, and a negative batch would wrap to 2^64 - 1.
TEST(SpecBuildTest, StreamSizesBelowOneRejected) {
  for (const char* line : {"chunk_size = 0", "write_batch_chunks = -1",
                           "inflight_window = 0"}) {
    SCOPED_TRACE(line);
    auto spec = ParseSpec(std::string("[cluster]\n") + line +
                              "\n[node d]\ntype = file.delete\npath = /x\n",
                          "t.spec");
    ASSERT_TRUE(spec.ok());
    const std::string key(line, std::string_view(line).find(' '));
    EXPECT_TRUE(ErrorMentions(BuildGraph(*spec).status(),
                              {"t.spec", "cluster", key.c_str()}));
  }
}

TEST(SpecBuildTest, GraphNeedsNodesAndLoadNeedsAKnownRequestNode) {
  auto spec = ParseSpec("name = empty\n", "t.spec");
  ASSERT_TRUE(spec.ok());
  EXPECT_TRUE(ErrorMentions(BuildGraph(*spec).status(), {"no [node]"}));

  spec = ParseSpec(
      "[node d]\ntype = file.delete\npath = /x\n"
      "[load]\nrequest = ghost\nrates = 10\n",
      "t.spec");
  ASSERT_TRUE(spec.ok());
  EXPECT_TRUE(ErrorMentions(BuildGraph(*spec).status(), {"ghost"}));

  spec = ParseSpec(
      "[node d]\ntype = file.delete\npath = /x\n"
      "[load]\nrequest = d\nrates = 10,zero\n",
      "t.spec");
  ASSERT_TRUE(spec.ok());
  EXPECT_TRUE(ErrorMentions(BuildGraph(*spec).status(), {"rates"}));
}

TEST(SpecBuildTest, BuildsAValidGraphWithLoadAndChecks) {
  constexpr std::string_view kText = R"(
name = mini
[cluster]
slots_per_server = 8

[node sink]
type = request.action_write
path = /s

[node teardown]
type = file.delete
measured = 0
path = /s
action = 1

[load]
request = sink
rates = 50,100,200,400
schedule = poisson
duration_s = 0.5
workers = 4

[check]
equal = entries,checksum
)";
  auto spec = ParseSpec(kText, "t.spec");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  auto graph = BuildGraph(*spec);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  EXPECT_EQ(graph->name, "mini");
  EXPECT_EQ(graph->cluster_options.slots_per_server, 8u);
  ASSERT_EQ(graph->nodes.size(), 2u);
  EXPECT_TRUE(graph->nodes[0]->measured());
  EXPECT_FALSE(graph->nodes[1]->measured());
  ASSERT_TRUE(graph->load.has_value());
  EXPECT_EQ(graph->load->request_node, "sink");
  EXPECT_EQ(graph->load->rates.size(), 4u);
  EXPECT_TRUE(graph->load->poisson);
  ASSERT_EQ(graph->check_equal.size(), 2u);
  EXPECT_EQ(graph->check_equal[0], "entries");
}

// Every spec shipped with the repo must parse and build. GLIDER_SPEC_DIR is
// injected by the build (tests/CMakeLists.txt).
TEST(SpecExamplesTest, EveryShippedSpecParsesAndBuilds) {
  const std::filesystem::path dir(GLIDER_SPEC_DIR);
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  std::size_t specs = 0;
  bool saw_load_curve = false;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".spec") continue;
    ++specs;
    auto spec = ParseSpecFile(entry.path().string());
    ASSERT_TRUE(spec.ok()) << spec.status().ToString();
    auto graph = BuildGraph(*spec);
    ASSERT_TRUE(graph.ok()) << entry.path() << ": "
                            << graph.status().ToString();
    EXPECT_FALSE(graph->nodes.empty()) << entry.path();
    if (entry.path().filename() == "load_curve.spec") {
      saw_load_curve = true;
      // The committed load curve must sweep >= 4 offered rates.
      ASSERT_TRUE(graph->load.has_value());
      EXPECT_GE(graph->load->rates.size(), 4u);
      EXPECT_TRUE(std::is_sorted(graph->load->rates.begin(),
                                 graph->load->rates.end()));
    }
  }
  EXPECT_GE(specs, 11u);  // the four paper workloads + load specs
  EXPECT_TRUE(saw_load_curve);
}

}  // namespace
}  // namespace glider::workloads
