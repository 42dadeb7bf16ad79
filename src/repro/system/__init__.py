"""The P3 system (paper Section 4): the proxy, PSPs, storage.

The architecture of Figure 3: browsers/apps talk HTTP to photo-sharing
providers; a trusted proxy interposes on both the sender and the
recipient side, transparently splitting uploads and reconstructing
downloads.  Nothing at the PSP changes.

Over HTTP the proxy is :class:`P3Gateway` (one user on the paper's
one-device deployment, or many), and :class:`PhotoSharingClient` is
the unmodified app in front of it; in process it is
:class:`repro.api.P3Session`.  Both are written against the
:mod:`repro.api.backends` protocols (re-exported here); the classes
below are the reference backends that satisfy them.
"""

from repro.api.backends import BlobStore, PSPBackend
from repro.serve import reconstruct_served, secret_blob_key
from repro.system.client import PhotoSharingClient
from repro.system.gateway import P3Gateway, pixels_from_response
from repro.system.http import HttpRequest, HttpResponse, build_url
from repro.system.psp import (
    AccessDeniedError,
    FacebookPSP,
    FlickrPSP,
    PhotoBucketPSP,
    PhotoSharingProvider,
    UploadRejectedError,
)
from repro.system.reverse import TransformEstimate, reverse_engineer
from repro.system.storage import CloudStorage

__all__ = [
    "PhotoSharingClient",
    "P3Gateway",
    "pixels_from_response",
    "build_url",
    "PSPBackend",
    "BlobStore",
    "reconstruct_served",
    "secret_blob_key",
    "PhotoSharingProvider",
    "FacebookPSP",
    "FlickrPSP",
    "PhotoBucketPSP",
    "AccessDeniedError",
    "UploadRejectedError",
    "CloudStorage",
    "HttpRequest",
    "HttpResponse",
    "TransformEstimate",
    "reverse_engineer",
]
