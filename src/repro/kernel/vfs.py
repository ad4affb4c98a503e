"""An in-memory Unix-like filesystem.

Supports regular files, directories, and symbolic links; permission
bits; path resolution with ``.``/``..`` handling and bounded symlink
following.  Symlinks are first-class because the paper's §5.4 discusses
the classic ``/tmp/foo -> /etc/passwd`` race against file-name
policies, which :mod:`repro.policy.normalize` defends against by
normalizing names during system call checking.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from repro.kernel.errors import Errno

S_IFREG = 0o100000
S_IFDIR = 0o040000
S_IFLNK = 0o120000
S_IFSOCK = 0o140000
S_IFCHR = 0o020000
S_IFIFO = 0o010000

MAX_SYMLINK_DEPTH = 8
MAX_NAME = 255


class VfsError(Exception):
    """A filesystem error carrying an errno."""

    def __init__(self, errno: Errno, path: str = ""):
        super().__init__(f"{errno.name}: {path}" if path else errno.name)
        self.errno = errno
        self.path = path


@dataclass
class Inode:
    kind: str  # "file" | "dir" | "symlink"
    mode: int
    data: bytearray = field(default_factory=bytearray)
    entries: dict[str, "Inode"] = field(default_factory=dict)
    target: str = ""
    #: Assigned by the owning :class:`Vfs`, so numbers depend only on
    #: that filesystem's history, never on other kernels in the host.
    ino: int = 0
    nlink: int = 1

    @property
    def is_dir(self) -> bool:
        return self.kind == "dir"

    @property
    def is_file(self) -> bool:
        return self.kind == "file"

    @property
    def is_symlink(self) -> bool:
        return self.kind == "symlink"

    @property
    def size(self) -> int:
        if self.is_file:
            return len(self.data)
        if self.is_symlink:
            return len(self.target)
        return len(self.entries)

    @property
    def file_type_bits(self) -> int:
        return {"file": S_IFREG, "dir": S_IFDIR, "symlink": S_IFLNK}[self.kind]


def _split(path: str) -> list[str]:
    return [part for part in path.split("/") if part and part != "."]


class Vfs:
    """The filesystem tree plus path-resolution machinery."""

    def __init__(self) -> None:
        self._inode_numbers = itertools.count(2)
        self.root = self._inode(kind="dir", mode=0o755)
        for standard in ("/bin", "/tmp", "/etc", "/dev", "/home", "/usr"):
            self.mkdir(standard, 0o755)
        self.chmod("/tmp", 0o1777)

    def _inode(self, **fields) -> Inode:
        return Inode(ino=next(self._inode_numbers), **fields)

    # -- resolution -----------------------------------------------------

    def resolve(
        self,
        path: str,
        cwd: str = "/",
        follow: bool = True,
        _depth: int = 0,
    ) -> Inode:
        """Resolve ``path`` (relative to ``cwd``) to an inode."""
        if _depth > MAX_SYMLINK_DEPTH:
            raise VfsError(Errno.ELOOP, path)
        node, parent, name = self._walk(path, cwd, _depth)
        if node is None:
            raise VfsError(Errno.ENOENT, path)
        if node.is_symlink and follow:
            base = self._dirname(path, cwd)
            return self.resolve(node.target, base, follow=True, _depth=_depth + 1)
        return node

    def _dirname(self, path: str, cwd: str) -> str:
        absolute = path if path.startswith("/") else self._join(cwd, path)
        head = absolute.rsplit("/", 1)[0]
        return head or "/"

    @staticmethod
    def _join(cwd: str, path: str) -> str:
        return cwd.rstrip("/") + "/" + path

    def _walk(
        self, path: str, cwd: str, depth: int = 0
    ) -> tuple[Optional[Inode], Inode, str]:
        """Return (node_or_None, parent_dir_inode, final_name)."""
        if not path:
            raise VfsError(Errno.ENOENT, path)
        if depth > MAX_SYMLINK_DEPTH:
            raise VfsError(Errno.ELOOP, path)
        start = "/" if path.startswith("/") else cwd
        current = self.root
        stack: list[Inode] = []
        parts = _split(start) + _split(path) if not path.startswith("/") else _split(path)
        # Resolve the leading cwd portion first when path is relative.
        node: Optional[Inode] = current
        for index, part in enumerate(parts):
            if len(part) > MAX_NAME:
                raise VfsError(Errno.ENAMETOOLONG, path)
            assert node is not None
            if part == "..":
                if stack:
                    node = stack.pop()
                continue
            if not node.is_dir:
                raise VfsError(Errno.ENOTDIR, path)
            child = node.entries.get(part)
            is_last = index == len(parts) - 1
            if child is None:
                if is_last:
                    return None, node, part
                raise VfsError(Errno.ENOENT, path)
            if child.is_symlink and not is_last:
                resolved = self.resolve(
                    child.target,
                    self._path_of_stack(stack + [node]),
                    follow=True,
                    _depth=depth + 1,
                )
                stack.append(node)
                node = resolved
                continue
            if is_last:
                return child, node, part
            stack.append(node)
            node = child
        # Path was empty after normalization ("/", ".", "a/..", ...).
        return node, node, ""

    def _path_of_stack(self, stack: list[Inode]) -> str:
        """Best-effort textual path for a directory chain.

        Used only as the base for relative symlink targets; we rebuild
        it by searching the tree (directories are few in tests)."""

        def find(node: Inode, needle: Inode, prefix: str) -> Optional[str]:
            if node is needle:
                return prefix or "/"
            if node.is_dir:
                for name, child in node.entries.items():
                    found = find(child, needle, f"{prefix}/{name}")
                    if found:
                        return found
            return None

        if not stack:
            return "/"
        return find(self.root, stack[-1], "") or "/"

    # -- operations ------------------------------------------------------

    def lookup(self, path: str, cwd: str = "/", follow: bool = True) -> Inode:
        return self.resolve(path, cwd, follow)

    def exists(self, path: str, cwd: str = "/") -> bool:
        try:
            self.resolve(path, cwd)
            return True
        except VfsError:
            return False

    def create_file(
        self,
        path: str,
        mode: int = 0o644,
        cwd: str = "/",
        exclusive: bool = False,
        _depth: int = 0,
    ) -> Inode:
        if _depth > MAX_SYMLINK_DEPTH:
            raise VfsError(Errno.ELOOP, path)
        node, parent, name = self._walk(path, cwd)
        if node is not None:
            if node.is_symlink:
                # open(O_CREAT) through a symlink creates/uses the target.
                base = self._dirname(path, cwd)
                return self.create_file(
                    node.target, mode, base, exclusive, _depth=_depth + 1
                )
            if exclusive:
                raise VfsError(Errno.EEXIST, path)
            if node.is_dir:
                raise VfsError(Errno.EISDIR, path)
            return node
        if not name:
            raise VfsError(Errno.EINVAL, path)
        child = self._inode(kind="file", mode=mode & 0o7777)
        parent.entries[name] = child
        return child

    def write_file(self, path: str, data: bytes, cwd: str = "/") -> Inode:
        node = self.create_file(path, cwd=cwd)
        node.data[:] = data
        return node

    def read_file(self, path: str, cwd: str = "/") -> bytes:
        node = self.resolve(path, cwd)
        if not node.is_file:
            raise VfsError(Errno.EISDIR, path)
        return bytes(node.data)

    def mkdir(self, path: str, mode: int = 0o755, cwd: str = "/") -> Inode:
        node, parent, name = self._walk(path, cwd)
        if node is not None:
            raise VfsError(Errno.EEXIST, path)
        if not name:
            raise VfsError(Errno.EINVAL, path)
        child = self._inode(kind="dir", mode=mode & 0o7777)
        parent.entries[name] = child
        return child

    def symlink(self, target: str, linkpath: str, cwd: str = "/") -> Inode:
        node, parent, name = self._walk(linkpath, cwd)
        if node is not None:
            raise VfsError(Errno.EEXIST, linkpath)
        if not name:
            raise VfsError(Errno.EINVAL, linkpath)
        child = self._inode(kind="symlink", mode=0o777, target=target)
        parent.entries[name] = child
        return child

    def readlink(self, path: str, cwd: str = "/") -> str:
        node = self.resolve(path, cwd, follow=False)
        if not node.is_symlink:
            raise VfsError(Errno.EINVAL, path)
        return node.target

    def unlink(self, path: str, cwd: str = "/") -> None:
        node, parent, name = self._walk(path, cwd)
        if node is None:
            raise VfsError(Errno.ENOENT, path)
        if node.is_dir:
            raise VfsError(Errno.EISDIR, path)
        del parent.entries[name]

    def rmdir(self, path: str, cwd: str = "/") -> None:
        node, parent, name = self._walk(path, cwd)
        if node is None:
            raise VfsError(Errno.ENOENT, path)
        if not node.is_dir:
            raise VfsError(Errno.ENOTDIR, path)
        if node.entries:
            raise VfsError(Errno.ENOTEMPTY, path)
        if node is self.root:
            raise VfsError(Errno.EBUSY, path)
        del parent.entries[name]

    def rename(self, old: str, new: str, cwd: str = "/") -> None:
        node, old_parent, old_name = self._walk(old, cwd)
        if node is None:
            raise VfsError(Errno.ENOENT, old)
        target, new_parent, new_name = self._walk(new, cwd)
        if not new_name:
            raise VfsError(Errno.EINVAL, new)
        if target is not None:
            if target.is_dir and not node.is_dir:
                raise VfsError(Errno.EISDIR, new)
            if target.is_dir and target.entries:
                raise VfsError(Errno.ENOTEMPTY, new)
        del old_parent.entries[old_name]
        new_parent.entries[new_name] = node

    def chmod(self, path: str, mode: int, cwd: str = "/") -> None:
        node = self.resolve(path, cwd)
        node.mode = mode & 0o7777

    def listdir(self, path: str, cwd: str = "/") -> list[str]:
        node = self.resolve(path, cwd)
        if not node.is_dir:
            raise VfsError(Errno.ENOTDIR, path)
        return sorted(node.entries)

    def normalize(self, path: str, cwd: str = "/", _depth: int = 0) -> str:
        """Return the canonical absolute path with all symlinks
        resolved — the §5.4 normalized file name.  The final component
        need not exist."""
        if _depth > MAX_SYMLINK_DEPTH:
            raise VfsError(Errno.ELOOP, path)
        if not path:
            raise VfsError(Errno.ENOENT, path)
        node, parent, name = self._walk(path, cwd)
        if node is not None and node.is_symlink:
            base = self._dirname(path, cwd)
            return self.normalize(node.target, base, _depth=_depth + 1)
        parent_path = self._path_of_inode(parent)
        if not name:
            return parent_path
        if parent_path == "/":
            return f"/{name}"
        return f"{parent_path}/{name}"

    def _path_of_inode(self, needle: Inode) -> str:
        def find(node: Inode, prefix: str) -> Optional[str]:
            if node is needle:
                return prefix or "/"
            if node.is_dir:
                for name, child in node.entries.items():
                    found = find(child, f"{prefix}/{name}")
                    if found:
                        return found
            return None

        found = find(self.root, "")
        if found is None:
            raise VfsError(Errno.ENOENT)
        return found
