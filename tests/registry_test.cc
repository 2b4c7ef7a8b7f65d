/**
 * @file
 * DirectoryRegistry coverage: every organization self-registers and
 * round-trips (list -> build -> name()), traits drive the CMP geometry
 * decisions, and unknown names fail with a message naming the
 * alternatives.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "directory/registry.hh"

#include "dir_test_util.hh"

namespace cdir {
namespace {

/** Workable small parameters for any registered organization. */
DirectoryParams
paramsFor(const std::string &organization)
{
    DirectoryParams p;
    p.organization = organization;
    p.numCaches = 8;
    p.ways = 4;
    p.sets = 64;
    p.trackedCacheAssoc = 2;
    p.taglessBucketBits = 64;
    return p;
}

TEST(DirectoryRegistry, AllSevenOrganizationsRegistered)
{
    const auto names = DirectoryRegistry::instance().names();
    for (const char *expected :
         {"Cuckoo", "Sparse", "Skewed", "DuplicateTag", "InCache",
          "Tagless", "Elbow"}) {
        EXPECT_TRUE(std::find(names.begin(), names.end(), expected) !=
                    names.end())
            << expected << " missing from registry";
        EXPECT_TRUE(DirectoryRegistry::instance().contains(expected));
    }
    EXPECT_GE(names.size(), 7u);
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(DirectoryRegistry, EveryNameRoundTripsThroughBuild)
{
    for (const std::string &name : DirectoryRegistry::instance().names()) {
        const DirectoryParams p = paramsFor(name);
        auto dir = DirectoryRegistry::instance().build(name, p);
        ASSERT_NE(dir, nullptr) << name;
        // Reported names are "<Organization>-<geometry>"; the registry
        // key must prefix them so reports stay greppable.
        EXPECT_EQ(dir->name().rfind(name, 0), 0u)
            << "'" << dir->name() << "' does not start with '" << name
            << "'";
        EXPECT_EQ(dir->numCaches(), p.numCaches);
        EXPECT_GT(dir->capacity(), 0u);
        // A built directory must be immediately usable.
        auto res = test::accessDir(*dir, Tag{1}, CacheId{0}, false);
        EXPECT_TRUE(res.inserted);
        EXPECT_TRUE(dir->probe(Tag{1}));
    }
}

TEST(DirectoryRegistry, MirrorTraitsMatchOrganizations)
{
    const auto &registry = DirectoryRegistry::instance();
    EXPECT_TRUE(registry.traits("DuplicateTag").mirrorsTrackedCaches);
    EXPECT_TRUE(registry.traits("Tagless").mirrorsTrackedCaches);
    EXPECT_FALSE(registry.traits("Cuckoo").mirrorsTrackedCaches);
    EXPECT_FALSE(registry.traits("Sparse").mirrorsTrackedCaches);
    EXPECT_FALSE(registry.traits("Skewed").mirrorsTrackedCaches);
    EXPECT_FALSE(registry.traits("InCache").mirrorsTrackedCaches);
    EXPECT_FALSE(registry.traits("Elbow").mirrorsTrackedCaches);
}

TEST(DirectoryRegistry, UnknownNameFailsListingAlternatives)
{
    const DirectoryParams p = paramsFor("NoSuchOrganization");
    try {
        DirectoryRegistry::instance().build("NoSuchOrganization", p);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        const std::string message = e.what();
        EXPECT_NE(message.find("NoSuchOrganization"), std::string::npos);
        // The error teaches the caller what exists.
        EXPECT_NE(message.find("Cuckoo"), std::string::npos);
        EXPECT_NE(message.find("Tagless"), std::string::npos);
    }
    EXPECT_THROW(DirectoryRegistry::instance().traits("NoSuchOrganization"),
                 std::invalid_argument);
    EXPECT_THROW(makeDirectory(paramsFor("NoSuchOrganization")),
                 std::invalid_argument);
}

TEST(DirectoryRegistry, DuplicateRegistrationIsRejected)
{
    EXPECT_THROW(DirectoryRegistry::instance().registerOrganization(
                     "Cuckoo", DirectoryTraits{},
                     [](const DirectoryParams &) {
                         return std::unique_ptr<Directory>();
                     }),
                 std::logic_error);
}

} // namespace
} // namespace cdir
