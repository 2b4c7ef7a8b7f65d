/**
 * @file
 * String-keyed directory-organization registry.
 *
 * Each organization's translation unit self-registers a builder lambda
 * over `DirectoryParams` (plus traits the CMP driver needs), and
 * consumers enumerate `names()` generically. `makeDirectory()` builds
 * `DirectoryParams::organization` through the registry.
 *
 * Registering a new organization takes one macro invocation in its .cc:
 *
 *   CDIR_REGISTER_DIRECTORY(my_org, "MyOrg", DirectoryTraits{},
 *       [](const DirectoryParams &p) {
 *           return std::make_unique<MyOrgDirectory>(...);
 *       });
 *
 * Note for static linking: registration runs from each organization's
 * object file's static initializers, so the library must be linked
 * whole (the build uses a CMake OBJECT library for exactly this
 * reason).
 *
 * Thread safety: the registry map is only mutated during static
 * initialization (before main, single-threaded); after that every
 * operation is a const read, so concurrent build()/traits()/names()
 * calls from sweep workers are lock-free and race-free. Builders must
 * stay stateless (capture nothing mutable) — all current registrations
 * construct from their DirectoryParams argument alone. Registering at
 * runtime while sweeps are in flight is not supported.
 */

#ifndef CDIR_DIRECTORY_REGISTRY_HH
#define CDIR_DIRECTORY_REGISTRY_HH

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "directory/directory.hh"

namespace cdir {

/** Structural properties consumers need before construction. */
struct DirectoryTraits
{
    /**
     * Slice geometry mirrors the tracked caches' sets (Fig. 3):
     * the driver derives `sets` from the private-cache geometry instead
     * of taking it from DirectoryParams (DuplicateTag, Tagless).
     */
    bool mirrorsTrackedCaches = false;
    /**
     * Capacity scales with DirectoryParams::bucketSlots (bucketized
     * Cuckoo tables); used by DirectoryParams::totalEntries().
     */
    bool usesBucketSlots = false;
};

/** Global name -> builder registry (see file comment). */
class DirectoryRegistry
{
  public:
    using Builder =
        std::function<std::unique_ptr<Directory>(const DirectoryParams &)>;

    /** The process-wide registry instance. */
    static DirectoryRegistry &instance();

    /**
     * Register @p name. Organizations call this through
     * CDIR_REGISTER_DIRECTORY at static-initialization time.
     * @throws std::logic_error if the name is already taken.
     */
    void registerOrganization(std::string name, DirectoryTraits traits,
                              Builder builder);

    /**
     * Build the organization registered as @p name.
     * @throws std::invalid_argument naming the known organizations if
     *         @p name is not registered.
     */
    std::unique_ptr<Directory> build(std::string_view name,
                                     const DirectoryParams &params) const;

    /** Traits of @p name. @throws std::invalid_argument if unknown. */
    const DirectoryTraits &traits(std::string_view name) const;

    /** True iff @p name is registered. */
    bool contains(std::string_view name) const;

    /** All registered names, sorted. */
    std::vector<std::string> names() const;

  private:
    struct Entry
    {
        DirectoryTraits traits;
        Builder builder;
    };

    const Entry &lookup(std::string_view name) const;

    std::map<std::string, Entry, std::less<>> organizations;
};

/** Performs one registration from a static initializer. */
class DirectoryRegistrar
{
  public:
    DirectoryRegistrar(const char *name, DirectoryTraits traits,
                       DirectoryRegistry::Builder builder)
    {
        DirectoryRegistry::instance().registerOrganization(
            name, traits, std::move(builder));
    }
};

/**
 * Self-register a directory organization from its translation unit.
 * @param ident unique C identifier for the registrar object.
 * Remaining arguments: name, DirectoryTraits, builder callable.
 */
#define CDIR_REGISTER_DIRECTORY(ident, ...)                                  \
    static const ::cdir::DirectoryRegistrar cdirDirectoryRegistrar_##ident{ \
        __VA_ARGS__}

} // namespace cdir

#endif // CDIR_DIRECTORY_REGISTRY_HH
