// Seeded mutation fuzzing of the checked-in campaign specs
// (bench/specs/*.json).  Each spec is mutated by dropping a key, swapping a
// value's type, turning an array into an object keyed by index, and
// `--set`-style indexing into an object; every mutant must either parse or
// be rejected with std::runtime_error / std::invalid_argument, the two
// exceptions CampaignSpec::Parse documents.  Anything else (another
// exception type, a crash under the sanitizers) is a parser defect.  Fixed
// seeds, so a failure names a reproducible mutant.
#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/json.h"
#include "campaign/spec.h"
#include "util/random.h"

namespace ctflash::campaign {
namespace {

const std::filesystem::path kSpecDir =
    std::filesystem::path(CTFLASH_TEST_DATA_DIR) / ".." / ".." / "bench" /
    "specs";

std::vector<std::filesystem::path> SpecFiles() {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(kSpecDir)) {
    if (entry.path().extension() == ".json") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

Json Load(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return Json::Parse(text.str());
}

/// A node's address as path segments: grid axis keys contain dots
/// ("workload.queue_depth"), so a dot-joined path cannot always reach it.
using Path = std::vector<std::string>;

std::string Joined(const Path& path) {
  std::string out;
  for (const std::string& part : path) out += (out.empty() ? "" : ".") + part;
  return out;
}

/// Every node below the root, in document order.
void CollectPaths(const Json& node, const Path& path, std::vector<Path>& out) {
  auto visit = [&](const std::string& key, const Json& child) {
    Path next = path;
    next.push_back(key);
    out.push_back(next);
    CollectPaths(child, next, out);
  };
  if (node.IsObject()) {
    for (const auto& [key, value] : node.AsObject()) visit(key, value);
  } else if (node.IsArray()) {
    for (std::size_t i = 0; i < node.AsArray().size(); ++i) {
      visit(std::to_string(i), node.AsArray()[i]);
    }
  }
}

Json& NodeAt(Json& root, const Path& path) {
  Json* node = &root;
  for (const std::string& part : path) {
    node = node->IsArray() ? &node->AsArray()[std::stoull(part)]
                           : &node->AsObject().at(part);
  }
  return *node;
}

/// Parses `spec`; returns the rejection message, or "" when it parsed.
/// Any exception but the two documented ones fails the test.
std::string ParseOrReject(const Json& spec, const std::string& mutant) {
  try {
    CampaignSpec::Parse(spec);
    return "";
  } catch (const std::invalid_argument& e) {
    return e.what();
  } catch (const std::runtime_error& e) {
    return e.what();
  } catch (const std::exception& e) {
    ADD_FAILURE() << mutant << ": undocumented exception: " << e.what();
  } catch (...) {
    ADD_FAILURE() << mutant << ": non-std exception";
  }
  return "?";
}

/// One value of every JSON kind, to swap a node's type.
const std::vector<Json>& Replacements() {
  static const std::vector<Json> values = {
      Json(),         Json(true),     Json(3),          Json(-1),
      Json(0.5),      Json("x"),      Json(JsonArray{}), Json(JsonObject{})};
  return values;
}

constexpr int kMutantsPerKind = 40;

TEST(CampaignSpecFuzz, EveryCheckedInSpecParses) {
  const auto files = SpecFiles();
  ASSERT_GE(files.size(), 7u) << kSpecDir;
  for (const auto& file : files) {
    EXPECT_EQ(ParseOrReject(Load(file), file.filename().string()), "")
        << file;
  }
}

TEST(CampaignSpecFuzz, MutantsParseOrThrowDocumentedErrors) {
  std::uint64_t seed = 0xC0FFEE;
  for (const auto& file : SpecFiles()) {
    Json original = Load(file);
    std::vector<Path> paths;
    CollectPaths(original, {}, paths);
    std::vector<Path> object_paths;
    std::vector<Path> array_paths;
    for (const Path& p : paths) {
      const Json& node = NodeAt(original, p);
      // `--set` addresses nodes by dot-path, so only dot-free paths.
      const bool dot_free = std::none_of(
          p.begin(), p.end(), [](const std::string& k) {
            return k.find('.') != std::string::npos;
          });
      if (node.IsObject() && dot_free) object_paths.push_back(p);
      if (node.IsArray()) array_paths.push_back(p);
    }
    util::Xoshiro256StarStar rng(++seed);
    const std::string name = file.filename().string();
    for (int i = 0; i < kMutantsPerKind; ++i) {
      // Drop a key.
      {
        Path path = paths[rng.UniformBelow(paths.size())];
        const std::string key = path.back();
        path.pop_back();
        Json mutant = original;
        Json& holder = NodeAt(mutant, path);
        if (holder.IsObject()) {
          holder.AsObject().erase(key);
          ParseOrReject(mutant, name + " drop " + Joined(path) + "." + key);
        }
      }
      // Swap a value's type.
      {
        const Path& path = paths[rng.UniformBelow(paths.size())];
        const Json& value =
            Replacements()[rng.UniformBelow(Replacements().size())];
        Json mutant = original;
        NodeAt(mutant, path) = value;
        ParseOrReject(mutant,
                      name + " swap " + Joined(path) + "=" + value.Dump());
      }
      // An array becomes an object keyed by index.
      if (!array_paths.empty()) {
        const Path& path = array_paths[rng.UniformBelow(array_paths.size())];
        Json mutant = original;
        Json& node = NodeAt(mutant, path);
        JsonObject keyed;
        for (std::size_t k = 0; k < node.AsArray().size(); ++k) {
          keyed[std::to_string(k)] = node.AsArray()[k];
        }
        node = Json(std::move(keyed));
        ParseOrReject(mutant, name + " keyed " + Joined(path));
      }
      // `--set` indexing into an object is refused, naming the path.
      if (!object_paths.empty()) {
        const std::string path =
            Joined(object_paths[rng.UniformBelow(object_paths.size())]);
        Json mutant = original;
        try {
          SetJsonPath(mutant, path + ".0.weight", Json(1));
          ADD_FAILURE() << name << ": indexed object " << path;
        } catch (const std::runtime_error& e) {
          EXPECT_NE(std::string(e.what()).find("\"" + path + "\""),
                    std::string::npos)
              << e.what();
        }
      }
    }
  }
}

TEST(CampaignSpecFuzz, QosMutantsNameTheField) {
  // The tenant-QoS spec's no-qos arm has "qos": null; indexing it is the
  // `--set arms.1.qos.0.weight=1` reproducer.
  Json tenant_qos = Load(kSpecDir / "tenant_qos.json");
  try {
    SetJsonPath(tenant_qos, "arms.1.qos.0.weight", Json(1));
    FAIL() << "indexing a null qos accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("\"arms.1.qos\""), std::string::npos)
        << e.what();
  }
  // Every qos list in every spec, swapped to each non-list kind.
  int mutants = 0;
  for (const auto& file : SpecFiles()) {
    Json original = Load(file);
    std::vector<Path> paths;
    CollectPaths(original, {}, paths);
    for (const Path& path : paths) {
      if (path.back() != "qos" || !NodeAt(original, path).IsArray()) continue;
      for (const Json& value : Replacements()) {
        if (value.IsNull() || value.IsArray()) continue;
        Json mutant = original;
        NodeAt(mutant, path) = value;
        const std::string what =
            ParseOrReject(mutant, file.filename().string() + " " +
                                      Joined(path) + "=" + value.Dump());
        EXPECT_NE(what.find("qos"), std::string::npos)
            << Joined(path) << "=" << value.Dump() << " -> " << what;
        ++mutants;
      }
    }
  }
  EXPECT_GT(mutants, 0);
}

}  // namespace
}  // namespace ctflash::campaign
