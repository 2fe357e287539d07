// Fixture: a clean result-affecting file (the root must exist for the
// lint to run; it contributes no findings).
namespace fixture {

int identity(int x) { return x; }

}  // namespace fixture
